//! Incremental re-allocation on device additions and removals.
//!
//! Section III-E of the paper observes that re-running the full allocator
//! whenever devices join or leave "may lead to interruptions to the
//! network operations" and names incremental adjustment — touching as few
//! existing devices as possible — as future work. This module implements
//! it:
//!
//! * [`IncrementalAllocator::extend`] allocates only the *new* devices
//!   (each by a lexicographic max-min candidate scan, the same walk the
//!   full algorithm runs), then optionally repairs the handful of existing
//!   devices whose contention groups the newcomers joined;
//! * [`IncrementalAllocator::after_removal`] repairs the groups that lost
//!   members after devices left.
//!
//! Every device outside the affected groups keeps its configuration
//! verbatim, so the over-the-air reconfiguration cost is bounded by the
//! group sizes rather than the network size.
//!
//! ## Repairs on a model state
//!
//! Every entry point repairs a [`ModelState`] in place and leaves it
//! refreshed, bound to the repaired allocation. The state may borrow its
//! model or own it: a caller that holds only an allocation builds one
//! with [`NetworkModel::state`], while the serve daemon keeps one owned
//! state alive across churn, applies each event to it
//! ([`ModelState::join_rows`] and friends) and repairs it here, so a write
//! builds no model and no state. The two give the same bits: a churn
//! operation leaves the state equal to a fresh build. A newcomer starts
//! at [`NetworkModel::seed_config`] at the maximum TP on both paths
//! ([`seed_newcomers`] builds that allocation from scratch).
//!
//! ## The repair rule
//!
//! Each device's scan is one walk of [`lora_model::scan`]; this module
//! supplies only its acceptance rule, `Repair`, which is sequential and
//! banded rather than the dense pass's total order. With `best_min` and
//! `best_own` the best move so far (the device's standing before the scan
//! until one is taken) and the tie slack `s`, it takes a candidate with
//! `min > best_min + s`, a strict improver whatever its own EE, or with
//! `min ≥ best_min − s` and `own > best_own + s`. Its floor is
//! `best_min − s`; a cap triages as `Skip` at or below it, `OwnBar` up to
//! `best_min + s` and `Exact` above. The own-EE bar can *fall*, when the
//! first clause takes an improver with a lower own EE, so a column that
//! failed the old bar may clear the new one: the walk forgets its column
//! verdicts whenever the rule takes an offer.

use std::borrow::Borrow;

use lora_model::scan::{Candidate, Rule, Triage};
use lora_model::{ModelState, NetworkModel};
use lora_phy::{SpreadingFactor, TxConfig};

use crate::allocation::Allocation;
use crate::context::{check_nonempty, AllocationContext};
use crate::error::AllocError;
use crate::greedy::tie_slack;

/// Outcome of an incremental adjustment.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalOutcome {
    /// The adjusted allocation (covers every device of the new topology).
    pub allocation: Allocation,
    /// How many *pre-existing* devices had their configuration changed —
    /// the number of downlink reconfiguration commands the change costs.
    pub reconfigured: usize,
    /// Network minimum EE (model) after the adjustment, bits/mJ.
    pub min_ee: f64,
    /// Candidate configurations examined.
    pub candidates_evaluated: u64,
}

/// Incremental counterpart of [`crate::EfLora`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalAllocator {
    /// Whether existing members of the groups touched by the change may be
    /// re-assigned (one bounded repair pass). With `false`, only new
    /// devices receive configurations.
    repair: bool,
}

impl Default for IncrementalAllocator {
    fn default() -> Self {
        IncrementalAllocator { repair: true }
    }
}

impl IncrementalAllocator {
    /// Creates the allocator with repair enabled.
    pub fn new() -> Self {
        IncrementalAllocator::default()
    }

    /// Enables or disables the repair pass over affected existing devices.
    #[must_use]
    pub fn with_repair(mut self, repair: bool) -> Self {
        self.repair = repair;
        self
    }

    /// Allocates the devices appended to a deployment.
    ///
    /// `state` binds the grown deployment: devices `0..first_new` are the
    /// old ones with their configurations, and the devices from
    /// `first_new` on are new, at their seed configurations. Each
    /// newcomer is placed by a scan over `grid`, the canonical candidate
    /// grid ([`AllocationContext::candidates`]); the old devices keep
    /// their configurations unless the repair pass improves the network
    /// minimum by moving one.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidParameter`] if `first_new` lies past
    /// the deployment, and the usual empty-deployment errors.
    pub fn extend<M: Borrow<NetworkModel>>(
        &self,
        state: &mut ModelState<M>,
        grid: &[TxConfig],
        first_new: usize,
    ) -> Result<IncrementalOutcome, AllocError> {
        check_nonempty(state.model())?;
        let n = state.alloc().len();
        if first_new > n {
            return Err(AllocError::InvalidParameter {
                reason: "previous allocation is larger than the new topology",
            });
        }

        // Place each new device with the full lexicographic candidate scan;
        // placing a newcomer reconfigures nothing.
        let (placed, _) = scan_each(grid, state, first_new..n);
        let (candidates, reconfigured) = if self.repair {
            let (old, new) = state.alloc().split_at(first_new);
            let touched = affected_devices(new, old);
            scan_each(grid, state, touched)
        } else {
            (0, 0)
        };
        Ok(refreshed_outcome(state, placed + candidates, reconfigured))
    }

    /// Repairs the configurations of an explicit set of devices in place.
    ///
    /// Each listed device is re-scanned over `grid` with the full
    /// lexicographic candidate rule against `state`'s link budget;
    /// everyone else keeps its configuration verbatim. This is the
    /// resilience-recovery entry point: after a gateway failure, the
    /// caller binds the allocation to the masked topology's model and
    /// passes the devices whose link budget the failure changed, bounding
    /// the over-the-air reconfiguration cost by the blast radius instead
    /// of the network size. The cell-sharded planner repairs its cells
    /// through it too, with the out-of-cell world priced into the cell
    /// model's [`lora_model::Ambient`].
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidParameter`] when a device index is out
    /// of range, and the usual empty-deployment errors.
    pub fn repair<M: Borrow<NetworkModel>>(
        &self,
        state: &mut ModelState<M>,
        grid: &[TxConfig],
        devices: &[usize],
    ) -> Result<IncrementalOutcome, AllocError> {
        check_nonempty(state.model())?;
        if devices.iter().any(|&d| d >= state.alloc().len()) {
            return Err(AllocError::InvalidParameter {
                reason: "repair device index out of range",
            });
        }
        let (candidates, reconfigured) = scan_each(grid, state, devices.iter().copied());
        Ok(refreshed_outcome(state, candidates, reconfigured))
    }

    /// Repairs an allocation after devices left the deployment.
    ///
    /// `state` binds the shrunk deployment to the surviving devices'
    /// previous configurations, and `removed` holds the departed devices'
    /// old configurations, which determine the groups worth repairing.
    ///
    /// # Errors
    ///
    /// Returns the usual empty-deployment errors.
    pub fn after_removal<M: Borrow<NetworkModel>>(
        &self,
        state: &mut ModelState<M>,
        grid: &[TxConfig],
        removed: &[TxConfig],
    ) -> Result<IncrementalOutcome, AllocError> {
        check_nonempty(state.model())?;
        let (candidates, reconfigured) = if self.repair {
            let touched = affected_devices(removed, state.alloc());
            scan_each(grid, state, touched)
        } else {
            (0, 0)
        };
        Ok(refreshed_outcome(state, candidates, reconfigured))
    }
}

/// The allocation [`IncrementalAllocator::extend`] starts from once the
/// deployment `ctx` describes grew past the devices `previous` covers:
/// `previous`, then each later device at its seed configuration at the
/// maximum TP ([`NetworkModel::seed_config`], which
/// [`ModelState::join_rows`] seeds a live state's newcomers with).
pub fn seed_newcomers(ctx: &AllocationContext<'_>, previous: &[TxConfig]) -> Vec<TxConfig> {
    let max_tp = ctx.max_tp();
    let newcomers = previous.len()..ctx.device_count();
    previous
        .iter()
        .copied()
        .chain(newcomers.map(|i| ctx.model().seed_config(i, max_tp)))
        .collect()
}

/// Indices of `existing` devices sharing a contention group with any of
/// `changes` — the bounded repair set.
fn affected_devices(changes: &[TxConfig], existing: &[TxConfig]) -> Vec<usize> {
    let groups: std::collections::HashSet<(SpreadingFactor, usize)> =
        changes.iter().map(TxConfig::group).collect();
    existing
        .iter()
        .enumerate()
        .filter(|(_, cfg)| groups.contains(&cfg.group()))
        .map(|(i, _)| i)
        .collect()
}

/// Scans each of `devices` in turn over `grid` and applies its best move.
/// Returns the candidates examined and how many of the devices moved.
fn scan_each<M: Borrow<NetworkModel>>(
    grid: &[TxConfig],
    state: &mut ModelState<M>,
    devices: impl IntoIterator<Item = usize>,
) -> (u64, usize) {
    let mut candidates = 0u64;
    let mut moved = 0usize;
    for device in devices {
        let before = state.alloc()[device];
        candidates += scan_and_apply(grid, state, device);
        moved += usize::from(state.alloc()[device] != before);
    }
    (candidates, moved)
}

/// Refreshes `state` and reports it as the outcome of an adjustment that
/// examined `candidates` and reconfigured `reconfigured` existing devices.
fn refreshed_outcome<M: Borrow<NetworkModel>>(
    state: &mut ModelState<M>,
    candidates: u64,
    reconfigured: usize,
) -> IncrementalOutcome {
    state.refresh();
    IncrementalOutcome {
        min_ee: state.min_ee(),
        allocation: Allocation::new(state.alloc().to_vec()),
        reconfigured,
        candidates_evaluated: candidates,
    }
}

/// The repair scan's acceptance rule (see the module docs): the best move
/// so far, or the device's standing before the scan until one is taken.
#[derive(Debug)]
struct Repair {
    /// The tie slack `s`.
    tie_slack: f64,
    /// The best move's network minimum.
    best_min: f64,
    /// The best move's own EE.
    best_own: f64,
    /// The best move, `None` until one is taken.
    best: Option<TxConfig>,
}

impl Repair {
    /// The rule before a scan that starts at network minimum `min` and
    /// the device's own EE `own`: no move taken.
    fn new(min: f64, own: f64) -> Self {
        Repair {
            tie_slack: tie_slack(min),
            best_min: min,
            best_own: own,
            best: None,
        }
    }
}

impl Rule for Repair {
    fn floor(&self) -> f64 {
        self.best_min - self.tie_slack
    }

    fn triage(&self, cap: f64) -> Triage {
        if cap <= self.floor() {
            Triage::Skip
        } else if cap <= self.best_min + self.tie_slack {
            Triage::OwnBar
        } else {
            Triage::Exact
        }
    }

    fn clears(&self, own: f64) -> bool {
        own > self.best_own + self.tie_slack
    }

    fn offer(&mut self, c: Candidate) -> bool {
        let take = c.min > self.best_min + self.tie_slack
            || (c.min >= self.best_min - self.tie_slack && self.clears(c.own));
        if take {
            self.best_min = c.min;
            self.best_own = c.own;
            self.best = Some(c.cfg);
        }
        take
    }
}

/// One device's repair scan over `grid`; applies the best move. Returns
/// the number of candidates examined.
fn scan_and_apply<M: Borrow<NetworkModel>>(
    grid: &[TxConfig],
    state: &mut ModelState<M>,
    device: usize,
) -> u64 {
    let mut rule = Repair::new(state.min_ee(), state.ee(device));
    let examined = state
        .prepare_scan(device)
        .walk(grid, 0..grid.len(), &mut rule);
    if let Some(cfg) = rule.best {
        state.apply(device, cfg);
    }
    examined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::tests::{around, check_rule_contract, offers_around, with_random_ambient};
    use crate::greedy::EfLora;
    use crate::strategy::Strategy;
    use lora_model::NetworkModel;
    use lora_sim::{SimConfig, Topology};
    use proptest::collection::vec;
    use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig, TestCaseError};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// [`IncrementalAllocator::extend`] from scratch: `previous` and the
    /// seeded newcomers bound to `ctx`'s model.
    fn extend_from_scratch(
        allocator: &IncrementalAllocator,
        ctx: &AllocationContext<'_>,
        previous: &[TxConfig],
    ) -> IncrementalOutcome {
        let mut state = ctx.model().state(seed_newcomers(ctx, previous)).unwrap();
        let outcome = allocator
            .extend(&mut state, ctx.candidates(), previous.len())
            .unwrap();
        assert_eq!(state.alloc(), outcome.allocation.as_slice());
        outcome
    }

    fn grown_pair(n_old: usize, n_new: usize, seed: u64) -> (SimConfig, Topology, Topology) {
        let config = SimConfig::default();
        // The grown topology shares the first n_old device sites: generate
        // the big one, then truncate for the small one.
        let grown = Topology::disc(n_old + n_new, 2, 4_000.0, &config, seed);
        let old = Topology::from_sites(
            grown.devices()[..n_old].to_vec(),
            grown.gateways().to_vec(),
            grown.radius_m(),
        );
        (config, old, grown)
    }

    #[test]
    fn extend_keeps_unaffected_devices_verbatim() {
        let (config, old_topo, new_topo) = grown_pair(40, 5, 1);
        let old_model = NetworkModel::new(&config, &old_topo);
        let old_ctx = AllocationContext::new(&config, &old_topo, &old_model);
        let previous = EfLora::default().allocate(&old_ctx).unwrap();

        let new_model = NetworkModel::new(&config, &new_topo);
        let new_ctx = AllocationContext::new(&config, &new_topo, &new_model);
        let outcome = extend_from_scratch(
            &IncrementalAllocator::default(),
            &new_ctx,
            previous.as_slice(),
        );

        assert_eq!(outcome.allocation.len(), 45);
        // Existing devices outside the affected groups are untouched.
        let new_groups: std::collections::HashSet<_> = outcome.allocation.as_slice()[40..]
            .iter()
            .map(TxConfig::group)
            .collect();
        let mut changed = 0;
        for i in 0..40 {
            let before = previous.as_slice()[i];
            let after = outcome.allocation[i];
            if before != after {
                changed += 1;
                assert!(
                    new_groups.contains(&before.group()) || new_groups.contains(&after.group()),
                    "device {i} changed without sharing a group with a newcomer"
                );
            }
        }
        assert_eq!(changed, outcome.reconfigured);
    }

    #[test]
    fn extend_quality_is_close_to_full_rerun() {
        let (config, old_topo, new_topo) = grown_pair(60, 8, 3);
        let old_model = NetworkModel::new(&config, &old_topo);
        let old_ctx = AllocationContext::new(&config, &old_topo, &old_model);
        let previous = EfLora::default().allocate(&old_ctx).unwrap();

        let new_model = NetworkModel::new(&config, &new_topo);
        let new_ctx = AllocationContext::new(&config, &new_topo, &new_model);
        let incremental = extend_from_scratch(
            &IncrementalAllocator::default(),
            &new_ctx,
            previous.as_slice(),
        );
        let full = EfLora::default().allocate_with_report(&new_ctx).unwrap();

        assert!(
            incremental.min_ee >= full.final_min_ee * 0.8,
            "incremental {} too far below full re-run {}",
            incremental.min_ee,
            full.final_min_ee
        );
        // And far cheaper: the full run scans every device every pass.
        assert!(incremental.candidates_evaluated < full.candidates_evaluated);
    }

    #[test]
    fn extend_without_repair_never_touches_existing() {
        let (config, old_topo, new_topo) = grown_pair(30, 4, 5);
        let old_model = NetworkModel::new(&config, &old_topo);
        let old_ctx = AllocationContext::new(&config, &old_topo, &old_model);
        let previous = EfLora::default().allocate(&old_ctx).unwrap();

        let new_model = NetworkModel::new(&config, &new_topo);
        let new_ctx = AllocationContext::new(&config, &new_topo, &new_model);
        let outcome = extend_from_scratch(
            &IncrementalAllocator::default().with_repair(false),
            &new_ctx,
            previous.as_slice(),
        );
        assert_eq!(outcome.reconfigured, 0);
        assert_eq!(&outcome.allocation.as_slice()[..30], previous.as_slice());
    }

    #[test]
    fn removal_repair_improves_or_preserves_min_ee() {
        let (config, _old, topo) = grown_pair(45, 0, 7);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let alloc = EfLora::default().allocate(&ctx).unwrap();

        // Remove the last five devices.
        let shrunk_topo = Topology::from_sites(
            topo.devices()[..40].to_vec(),
            topo.gateways().to_vec(),
            topo.radius_m(),
        );
        let remaining: Vec<TxConfig> = alloc.as_slice()[..40].to_vec();
        let removed: Vec<TxConfig> = alloc.as_slice()[40..].to_vec();
        let shrunk_model = NetworkModel::new(&config, &shrunk_topo);
        let shrunk_ctx = AllocationContext::new(&config, &shrunk_topo, &shrunk_model);

        let mut state = shrunk_model.state(remaining.clone()).unwrap();
        let untouched_min = state.min_ee();
        let outcome = IncrementalAllocator::default()
            .after_removal(&mut state, shrunk_ctx.candidates(), &removed)
            .unwrap();
        assert_eq!(state.alloc(), outcome.allocation.as_slice());
        assert!(
            outcome.min_ee >= untouched_min - 1e-9,
            "repair must not hurt: {} vs {untouched_min}",
            outcome.min_ee
        );
        assert_eq!(outcome.allocation.len(), 40);
    }

    /// What the brute-force reference for [`scan_and_apply`] saw.
    struct OracleScan {
        /// The move it would commit.
        winner: Option<TxConfig>,
        /// Candidates scored.
        scored: u64,
        /// A strict improver lowered the own-EE bar, and a later candidate
        /// of the same SF block that would have failed the old bar was
        /// accepted.
        reopened: bool,
    }

    /// Brute-force reference for [`scan_and_apply`]: scores every
    /// candidate of the context's grid with the unpruned evaluation and
    /// applies the scan's sequential banded rule, including the running
    /// floor's strict `min > floor`.
    fn oracle_scan(
        grid: &[TxConfig],
        state: &ModelState<&NetworkModel>,
        device: usize,
    ) -> OracleScan {
        let m = state.min_ee();
        let o = state.ee(device);
        let s = (m.abs() * 1e-9).max(1e-15);
        let current = state.alloc()[device];
        let mut floor = m - s;
        let mut best: Option<(f64, f64, TxConfig)> = None;
        let mut scored = 0;
        // The SF block and the old bar after a strict improver lowered it.
        let mut fallen: Option<(SpreadingFactor, f64)> = None;
        let mut reopened = false;
        for &cfg in grid {
            if cfg == current {
                continue;
            }
            scored += 1;
            let min = state
                .min_ee_if(device, cfg, f64::NEG_INFINITY)
                .expect("no floor prunes nothing");
            let own = state.ee_if(device, cfg);
            let (best_min, best_own) = best.map_or((m, o), |(min, own, _)| (min, own));
            if min > floor && (min > best_min + s || (min >= best_min - s && own > best_own + s)) {
                reopened |= fallen.is_some_and(|(sf, bar)| sf == cfg.sf && own <= bar + s);
                if min > best_min + s && own < best_own {
                    fallen = Some((cfg.sf, best_own));
                }
                best = Some((min, own, cfg));
                floor = min - s;
            }
        }
        OracleScan {
            winner: best.map(|(_, _, cfg)| cfg),
            scored,
            reopened,
        }
    }

    /// Walks three repair rounds over every device of an `n`-device,
    /// `gws`-gateway deployment from a random allocation, checking every
    /// scan against [`oracle_scan`]: early scans find improvers, later
    /// ones plateau moves or nothing. `ambient` is none, light or heavy
    /// out-of-scope occupancy. Returns how many scans reopened a column.
    fn check_repair_walk(
        n: usize,
        gws: usize,
        seed: u64,
        ambient: usize,
    ) -> Result<usize, TestCaseError> {
        let config = SimConfig::default();
        // A 1.5 km disc: most devices reach SF7–SF8, whose channels
        // fill, so a device's own group is often the easiest channel
        // of its SF, where the own-EE bound must net it out.
        let topo = Topology::disc(n, gws, 1_500.0, &config, seed);
        let mut model = NetworkModel::new(&config, &topo);
        if ambient > 0 {
            model = with_random_ambient(model, seed, ambient == 2);
        }
        let ctx = AllocationContext::new(&config, &topo, &model);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let alloc = (0..n)
            .map(|_| *ctx.candidates().choose(&mut rng).expect("a non-empty grid"))
            .collect();
        let mut state = model.state(alloc).unwrap();
        let mut reopened = 0;
        for round in 0..3 {
            for device in 0..n {
                let want = oracle_scan(ctx.candidates(), &state, device);
                let before = state.alloc()[device];
                let examined = scan_and_apply(ctx.candidates(), &mut state, device);
                let at = format!("round {round} device {device}");
                prop_assert_eq!(examined, want.scored, "{}", at);
                prop_assert_eq!(
                    state.alloc()[device],
                    want.winner.unwrap_or(before),
                    "{}",
                    at
                );
                reopened += usize::from(want.reopened);
            }
            state.refresh();
        }
        Ok(reopened)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn repair_scan_matches_brute_force_oracle(
            n in 2usize..30,
            gws in 1usize..4,
            seed in any::<u64>(),
            ambient in 0usize..3,
        ) {
            check_repair_walk(n, gws, seed, ambient)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn repair_rule_keeps_the_walk_contract(
            m in 0.0f64..100.0,
            o in 0.0f64..100.0,
            // Strict improvers that lower the bar, ties that raise it, and
            // refused candidates.
            offsets in vec((-12i32..=12, -12i32..=12), 0..16),
        ) {
            let s = tie_slack(m);
            let offers = offers_around(m, o, s, &offsets);
            check_rule_contract(Repair::new(m, o), &around(m, s), &around(o, s), &offers)?;
        }
    }

    #[test]
    fn repair_scan_reopens_columns_when_a_strict_improver_lowers_the_bar() {
        // The first acceptance clause takes a strict improver whatever its
        // own EE, so the repair scan's own-EE bar can fall in mid-block.
        // A column that failed the old bar may then clear the new one, and
        // its verdict has to be decided again. Under heavy occupancy this
        // walk commits such a reopened candidate.
        let reopened = check_repair_walk(18, 1, 1842, 2).unwrap();
        assert!(reopened > 0, "the walk must lower the bar in mid-block");
    }

    #[test]
    fn length_validation() {
        let (config, _old, topo) = grown_pair(10, 0, 9);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        // An allocation longer than the grown deployment cannot be bound.
        let too_long = vec![TxConfig::default(); 11];
        assert!(matches!(
            model.state(seed_newcomers(&ctx, &too_long)),
            Err(lora_model::ModelError::AllocationLengthMismatch { .. })
        ));
        let mut state = model.state(vec![TxConfig::default(); 10]).unwrap();
        assert!(matches!(
            IncrementalAllocator::default().extend(&mut state, ctx.candidates(), 11),
            Err(AllocError::InvalidParameter { .. })
        ));
        // Nor can one shorter than the shrunk deployment.
        let wrong = vec![TxConfig::default(); 9];
        assert!(matches!(
            model.state(wrong),
            Err(lora_model::ModelError::AllocationLengthMismatch { .. })
        ));
    }

    #[test]
    fn newcomers_start_at_the_seed_configuration() {
        let (config, _old, topo) = grown_pair(6, 4, 13);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let previous = vec![TxConfig::default(); 6];
        let seeded = seed_newcomers(&ctx, &previous);
        assert_eq!(&seeded[..6], previous.as_slice());
        for (i, cfg) in seeded.iter().enumerate().skip(6) {
            let sf = model
                .min_feasible_sf(i, ctx.max_tp())
                .unwrap_or(SpreadingFactor::Sf12);
            assert_eq!(
                *cfg,
                TxConfig::new(sf, ctx.max_tp(), i % ctx.channel_count())
            );
        }
    }
}
