//! Applying churn events to a live population.
//!
//! Extracted from the epoch runner so that batch replay
//! ([`crate::run_scenario`]) and long-running consumers (the
//! `ef-lora-serve` daemon) share one implementation of Join/Leave/Migrate
//! semantics. Every event flows through the matching
//! [`ef_lora::IncrementalAllocator`] entry point, so pre-existing devices
//! are reconfigured only when the change touches their contention groups.
//!
//! An event runs in two halves. [`stage_event`] mutates the population
//! and makes every random draw; [`finish_event`] repairs a
//! [`ModelState`] bound to the changed population. [`apply_event`], the
//! from-scratch path the scenario runner takes, builds a fresh model and
//! state for the second half. The daemon keeps one live state that owns
//! its model, applies the staged change to it as a state operation
//! ([`ModelState::join_rows`], [`ModelState::retire_rows`],
//! [`ModelState::refresh_intervals`]) and hands it to the same
//! [`finish_event`]; a churn operation leaves the state equal to a fresh
//! build, so both paths repair the same bits.
//!
//! Determinism contract: environment draws, leave shuffles and migration
//! shuffles all come from the caller-supplied churn stream; join
//! positions come from a spatial stream whose seed the caller derives
//! (see [`epoch_churn_rng`] / [`epoch_join_seed`] for the epoch runner's
//! derivation and [`event_churn_rng`] / [`event_join_seed`] for
//! event-sequence consumers). The extraction preserves the epoch runner's
//! draw order exactly — reports stay byte-identical.

use std::borrow::Borrow;

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use ef_lora::{seed_newcomers, AllocationContext, IncrementalAllocator};
use lora_model::{ModelState, NetworkModel};
use lora_phy::path_loss::LinkEnvironment;
use lora_phy::TxConfig;
use lora_sim::{DeviceSite, Position, SimConfig, SimError, Topology};

use crate::error::ScenarioError;
use crate::spatial::{sample_n_positions, SPATIAL_TAG};
use crate::spec::{ChurnEvent, ChurnKind, ClassSpec, SpatialSpec};

/// Seed tag of the churn stream ("churnrng").
pub(crate) const CHURN_TAG: u64 = 0x6368_7572_6e72_6e67;

/// Odd multiplier decorrelating event sequence numbers in
/// [`event_churn_rng`] / [`event_join_seed`] (the 64-bit golden ratio).
const SEQ_MIX: u64 = 0x9e37_79b9_97f4_a7c5;

/// Mutable population state threaded through churn events. The three
/// vectors are index-aligned: device `i` sits at `sites[i]`, belongs to
/// class `class_of[i]` and transmits with `alloc[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// Device sites (position + link environment).
    pub sites: Vec<DeviceSite>,
    /// Per-device index into the effective class list.
    pub class_of: Vec<usize>,
    /// Current per-device transmission configuration.
    pub alloc: Vec<TxConfig>,
}

impl Population {
    /// Number of live devices.
    pub fn device_count(&self) -> usize {
        self.sites.len()
    }
}

/// Immutable surroundings of a churn event: the class list, the spatial
/// process joining devices are drawn from, and the fixed gateway layout.
#[derive(Debug, Clone)]
pub struct ChurnContext<'a> {
    /// Effective device classes
    /// ([`crate::ScenarioSpec::effective_classes`]).
    pub classes: &'a [ClassSpec],
    /// Spatial process join positions are sampled from.
    pub spatial: &'a SpatialSpec,
    /// Gateway positions (fixed across churn).
    pub gateways: &'a [Position],
    /// Deployment region radius in metres.
    pub radius_m: f64,
}

/// Typed warning raised while applying a churn event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnWarning {
    /// A `Leave` asked for more departures than the population can
    /// absorb; the count was clamped so at least one device survives.
    LeaveClamped {
        /// Epoch the event was stamped with.
        epoch: u32,
        /// Departures the event requested.
        requested: usize,
        /// Departures actually applied.
        applied: usize,
    },
}

/// What applying one churn event did to the population.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// Devices that joined.
    pub joined: usize,
    /// Devices that left.
    pub left: usize,
    /// Devices that migrated classes.
    pub migrated: usize,
    /// Pre-existing devices whose configuration the incremental
    /// allocator changed.
    pub reconfigured: usize,
    /// Candidate configurations the incremental allocator examined.
    pub candidates_evaluated: u64,
    /// Analytical-model minimum EE after the adjustment, bits/mJ; `None`
    /// when the event was a no-op and no allocator pass ran.
    pub min_ee: Option<f64>,
    /// Warning raised while applying the event, if any.
    pub warning: Option<ChurnWarning>,
}

impl EventOutcome {
    /// The outcome of an event that changed nothing: no population
    /// delta, no allocator pass, no metric.
    pub fn noop(warning: Option<ChurnWarning>) -> Self {
        EventOutcome {
            joined: 0,
            left: 0,
            migrated: 0,
            reconfigured: 0,
            candidates_evaluated: 0,
            min_ee: None,
            warning,
        }
    }
}

/// The churn-draw stream of one epoch (environment draws, leave
/// shuffles, migration shuffles).
pub fn epoch_churn_rng(seed: u64, epoch: u32) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed ^ CHURN_TAG ^ ((epoch as u64) << 32))
}

/// Seed of the spatial stream the epoch runner draws join positions
/// from: offset by the joins already applied this epoch so every wave
/// lands on fresh coordinates.
pub fn epoch_join_seed(seed: u64, epoch: u32, joined_before: usize) -> u64 {
    seed ^ SPATIAL_TAG ^ ((epoch as u64) << 32) ^ joined_before as u64
}

/// Churn stream for the `seq`-th event of an event-sequence consumer
/// (the serve daemon), mirroring [`epoch_churn_rng`] with the sequence
/// number in the role of the epoch.
pub fn event_churn_rng(seed: u64, seq: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed ^ CHURN_TAG ^ seq.wrapping_mul(SEQ_MIX))
}

/// Spatial-stream seed for the `seq`-th event of an event-sequence
/// consumer; the [`event_churn_rng`] counterpart of
/// [`epoch_join_seed`].
pub fn event_join_seed(seed: u64, seq: u64) -> u64 {
    seed ^ SPATIAL_TAG ^ seq.wrapping_mul(SEQ_MIX)
}

/// How the incremental allocator must be invoked after the population
/// mutation of one event, carrying the inputs an incremental model
/// maintainer needs (which rows to add, retire or patch).
#[derive(Debug, Clone, PartialEq)]
pub enum StagedAdjust {
    /// The event changed nothing; no allocator pass runs.
    Noop,
    /// A `Join` appended `added` devices at the population tail.
    Extend {
        /// How many devices joined.
        added: usize,
    },
    /// A `Leave` compacted the population.
    AfterRemoval {
        /// Departed devices' old configurations (they key the repair
        /// groups).
        removed: Vec<TxConfig>,
        /// Mask over the *pre-event* population: `true` = departed.
        leaving: Vec<bool>,
    },
    /// A `Migrate` changed the classes of `members` (post-event
    /// indices; positions are unchanged).
    Repair {
        /// Devices whose class — and therefore reporting interval —
        /// changed.
        members: Vec<usize>,
    },
}

/// A churn event with its population mutation and random draws already
/// performed, but the allocator not yet run — the output of
/// [`stage_event`], consumed by [`finish_event`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedEvent {
    /// Devices that joined.
    pub joined: usize,
    /// Devices that left.
    pub left: usize,
    /// Devices that migrated classes.
    pub migrated: usize,
    /// Warning raised while staging, if any.
    pub warning: Option<ChurnWarning>,
    /// How to invoke the incremental allocator.
    pub adjust: StagedAdjust,
}

/// Performs the population mutation and every random draw of one churn
/// event, *without* running the allocator: the first half of
/// [`apply_event`], split out so callers that maintain model state
/// incrementally (the serve daemon) can update their caches between the
/// mutation and the allocator pass.
///
/// On a non-noop event the per-device reporting intervals in `config`
/// are refreshed before returning; a noop ([`StagedAdjust::Noop`])
/// returns with `config` untouched, exactly as [`apply_event`] behaves.
///
/// # Errors
///
/// Raised before any mutation or draw: [`ScenarioError::UnknownClass`] for
/// a class name outside the class list, and [`SimError::TopologyTooLarge`]
/// for a `Join` that would grow the dense attenuation matrix past
/// [`lora_sim::attenuation_budget_from_env`], the budget
/// [`NetworkModel::try_new`] holds a model to.
pub fn stage_event(
    ctx: &ChurnContext<'_>,
    config: &mut SimConfig,
    pop: &mut Population,
    event: &ChurnEvent,
    rng: &mut ChaCha12Rng,
    join_seed: u64,
) -> Result<StagedEvent, ScenarioError> {
    let (joined, left, migrated, warning, adjust) = match &event.event {
        ChurnKind::Join { class, count } => {
            let class_idx = class_index(ctx.classes, class)?;
            check_join_fits(pop.sites.len(), *count, ctx.gateways.len())?;
            let mut spatial_rng = ChaCha12Rng::seed_from_u64(join_seed);
            let positions = sample_n_positions(&mut spatial_rng, ctx.spatial, ctx.radius_m, *count);
            let p = ctx.classes[class_idx].p_los.unwrap_or(config.p_los);
            for position in positions {
                let environment = if rng.gen::<f64>() < p {
                    LinkEnvironment::LineOfSight
                } else {
                    LinkEnvironment::NonLineOfSight
                };
                pop.sites.push(DeviceSite {
                    position,
                    environment,
                });
                pop.class_of.push(class_idx);
            }
            (*count, 0, 0, None, StagedAdjust::Extend { added: *count })
        }
        ChurnKind::Leave { count } => {
            let requested = *count;
            let applied = requested.min(pop.sites.len().saturating_sub(1));
            let warning = (applied < requested).then_some(ChurnWarning::LeaveClamped {
                epoch: event.epoch,
                requested,
                applied,
            });
            if applied == 0 {
                return Ok(StagedEvent {
                    joined: 0,
                    left: 0,
                    migrated: 0,
                    warning,
                    adjust: StagedAdjust::Noop,
                });
            }
            let mut order: Vec<usize> = (0..pop.sites.len()).collect();
            order.shuffle(rng);
            let mut leaving = vec![false; pop.sites.len()];
            for &idx in &order[..applied] {
                leaving[idx] = true;
            }
            let removed: Vec<TxConfig> = pop
                .alloc
                .iter()
                .enumerate()
                .filter(|&(i, _)| leaving[i])
                .map(|(_, &cfg)| cfg)
                .collect();
            retain_kept(&mut pop.sites, &leaving);
            retain_kept(&mut pop.class_of, &leaving);
            retain_kept(&mut pop.alloc, &leaving);
            (
                0,
                applied,
                0,
                warning,
                StagedAdjust::AfterRemoval { removed, leaving },
            )
        }
        ChurnKind::Migrate { from, to, count } => {
            let from_idx = class_index(ctx.classes, from)?;
            let to_idx = class_index(ctx.classes, to)?;
            let mut members: Vec<usize> = pop
                .class_of
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == from_idx)
                .map(|(i, _)| i)
                .collect();
            members.shuffle(rng);
            members.truncate(*count);
            if members.is_empty() {
                return Ok(StagedEvent {
                    joined: 0,
                    left: 0,
                    migrated: 0,
                    warning: None,
                    adjust: StagedAdjust::Noop,
                });
            }
            for &i in &members {
                pop.class_of[i] = to_idx;
            }
            // A migrated device's reporting interval changed, so its
            // energy budget did too: re-scan exactly those devices.
            (0, 0, members.len(), None, StagedAdjust::Repair { members })
        }
    };

    refresh_intervals(config, &pop.class_of, ctx.classes);
    Ok(StagedEvent {
        joined,
        left,
        migrated,
        warning,
        adjust,
    })
}

/// Refuses a join of `joining` devices to `devices` devices and
/// `gateways` gateways when the grown dense `[device][gateway]`
/// attenuation matrix would exceed [`lora_sim::attenuation_budget_from_env`]:
/// the rule [`NetworkModel::try_new`] applies, checked before the join
/// draws a position or allocates anything, in arithmetic that cannot
/// overflow.
///
/// # Errors
///
/// [`SimError::TopologyTooLarge`], with the device count and byte need
/// saturated at their type's maximum where they overflow.
fn check_join_fits(devices: usize, joining: usize, gateways: usize) -> Result<(), ScenarioError> {
    let budget_bytes = lora_sim::attenuation_budget_from_env();
    let grown = devices.checked_add(joining);
    let required = grown
        .and_then(|n| u64::try_from(n).ok())
        .and_then(|n| n.checked_mul(u64::try_from(gateways).ok()?))
        .and_then(|cells| cells.checked_mul(8));
    match required {
        Some(bytes) if bytes <= budget_bytes => Ok(()),
        _ => Err(ScenarioError::Sim(SimError::TopologyTooLarge {
            devices: grown.unwrap_or(usize::MAX),
            gateways,
            required_bytes: required.unwrap_or(u64::MAX),
            budget_bytes,
        })),
    }
}

/// Runs the incremental allocator for a staged event and assembles the
/// outcome: the second half of [`apply_event`].
///
/// `state` binds the population after [`stage_event`]'s mutation: for an
/// `Extend`, the devices of `pop.alloc` followed by the joined devices at
/// their seed configurations; otherwise `pop.alloc`. It may be a fresh
/// build (as [`apply_event`] makes) or a live state the staged change was
/// applied to; the equivalence suite in the conformance crate proves both
/// produce byte-identical outcomes. The repair scans `grid`, the
/// canonical candidate grid, and leaves `state` refreshed and bound to
/// the repaired allocation, which it also writes to `pop.alloc`.
///
/// # Errors
///
/// [`ScenarioError::Alloc`] if the incremental allocator rejects the
/// adjusted deployment.
pub fn finish_event<M: Borrow<NetworkModel>>(
    state: &mut ModelState<M>,
    grid: &[TxConfig],
    pop: &mut Population,
    incremental: &IncrementalAllocator,
    staged: StagedEvent,
) -> Result<EventOutcome, ScenarioError> {
    let outcome = match &staged.adjust {
        StagedAdjust::Noop => return Ok(EventOutcome::noop(staged.warning)),
        StagedAdjust::Extend { .. } => incremental.extend(state, grid, pop.alloc.len())?,
        StagedAdjust::AfterRemoval { removed, .. } => {
            incremental.after_removal(state, grid, removed)?
        }
        StagedAdjust::Repair { members } => incremental.repair(state, grid, members)?,
    };
    let min_ee = outcome.min_ee;
    let reconfigured = outcome.reconfigured;
    let candidates_evaluated = outcome.candidates_evaluated;
    pop.alloc = outcome.allocation.into_inner();
    Ok(EventOutcome {
        joined: staged.joined,
        left: staged.left,
        migrated: staged.migrated,
        reconfigured,
        candidates_evaluated,
        min_ee: Some(min_ee),
        warning: staged.warning,
    })
}

/// Applies one churn event to the population through the matching
/// incremental-allocator entry point and refreshes the per-device
/// reporting intervals: [`stage_event`] followed by [`finish_event`] on a
/// freshly built `Topology`/`NetworkModel`/[`AllocationContext`] and
/// model state — the from-scratch reference semantics.
///
/// `rng` is the churn stream shared across a batch of events (one per
/// epoch in the runner, one per event in the daemon); `join_seed` seeds
/// the spatial stream a `Join`'s positions are drawn from.
///
/// A `Leave` keeps at least one device alive — an empty network has no
/// allocation to repair and no metric to report — and reports the clamp
/// as [`ChurnWarning::LeaveClamped`]. Departures are compacted in one
/// pass per population vector; `after_removal` keys on the removed
/// configs' contention groups, so collection order is immaterial.
///
/// # Errors
///
/// [`stage_event`]'s refusals; [`ScenarioError::Alloc`] if the
/// incremental allocator rejects the adjusted deployment.
pub fn apply_event(
    ctx: &ChurnContext<'_>,
    config: &mut SimConfig,
    pop: &mut Population,
    incremental: &IncrementalAllocator,
    event: &ChurnEvent,
    rng: &mut ChaCha12Rng,
    join_seed: u64,
) -> Result<EventOutcome, ScenarioError> {
    let staged = stage_event(ctx, config, pop, event, rng, join_seed)?;
    if staged.adjust == StagedAdjust::Noop {
        return Ok(EventOutcome::noop(staged.warning));
    }
    let topology = Topology::from_sites(pop.sites.clone(), ctx.gateways.to_vec(), ctx.radius_m);
    let model = NetworkModel::new(config, &topology);
    let alloc_ctx = AllocationContext::new(config, &topology, &model);
    let mut state = model
        .state(seed_newcomers(&alloc_ctx, &pop.alloc))
        .map_err(ef_lora::AllocError::from)?;
    finish_event(&mut state, alloc_ctx.candidates(), pop, incremental, staged)
}

/// Drops every index marked in `leaving` with a single compaction pass.
fn retain_kept<T>(items: &mut Vec<T>, leaving: &[bool]) {
    let mut idx = 0;
    items.retain(|_| {
        let keep = !leaving[idx];
        idx += 1;
        keep
    });
}

/// Index of `name` in the class list.
///
/// # Errors
///
/// [`ScenarioError::UnknownClass`] if no class carries that name.
pub fn class_index(classes: &[ClassSpec], name: &str) -> Result<usize, ScenarioError> {
    classes
        .iter()
        .position(|c| c.name == name)
        .ok_or_else(|| ScenarioError::UnknownClass {
            name: name.to_string(),
        })
}

/// Rebuilds `per_device_intervals_s` after the population changed (same
/// folding rule as compilation: one class → global interval only).
pub fn refresh_intervals(config: &mut SimConfig, class_of: &[usize], classes: &[ClassSpec]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_streams_differ_per_sequence_number() {
        let mut a = event_churn_rng(7, 0);
        let mut b = event_churn_rng(7, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
        assert_ne!(event_join_seed(7, 0), event_join_seed(7, 1));
    }

    #[test]
    fn join_budget_matches_the_models_and_cannot_overflow() {
        let budget_bytes = lora_sim::attenuation_budget_from_env();
        let fit = usize::try_from(budget_bytes / 8).unwrap();
        // At the budget a join fits; one device more does not.
        assert_eq!(check_join_fits(0, fit, 1), Ok(()));
        assert_eq!(check_join_fits(fit / 2, fit - fit / 2, 1), Ok(()));
        assert_eq!(
            check_join_fits(1, fit, 1),
            Err(ScenarioError::Sim(SimError::TopologyTooLarge {
                devices: fit + 1,
                gateways: 1,
                required_bytes: (fit as u64 + 1) * 8,
                budget_bytes,
            }))
        );
        // Overflowing counts and byte needs saturate instead of wrapping.
        assert_eq!(
            check_join_fits(1, usize::MAX, 3),
            Err(ScenarioError::Sim(SimError::TopologyTooLarge {
                devices: usize::MAX,
                gateways: 3,
                required_bytes: u64::MAX,
                budget_bytes,
            }))
        );
        assert_eq!(
            check_join_fits(0, usize::MAX / 2, 8),
            Err(ScenarioError::Sim(SimError::TopologyTooLarge {
                devices: usize::MAX / 2,
                gateways: 8,
                required_bytes: u64::MAX,
                budget_bytes,
            }))
        );
    }

    #[test]
    fn retain_kept_compacts_in_order() {
        let mut v = vec![10, 11, 12, 13, 14];
        retain_kept(&mut v, &[true, false, false, true, false]);
        assert_eq!(v, vec![11, 12, 14]);
    }
}
