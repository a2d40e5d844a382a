//! Degradation detection and online re-allocation under faults.
//!
//! The paper allocates once for a healthy network; this module closes the
//! loop when the network degrades. A [`ResilienceController`] watches the
//! windowed simulation reports the network server would aggregate,
//! compares the measured minimum energy efficiency against a healthy
//! baseline, and — after a configurable hysteresis streak, rate-limited
//! by a cooldown — asks for a failure-aware re-allocation. The recovery
//! itself ([`reallocate_masked`]) rebuilds the analytical model with the
//! suspect gateways masked out of the link budget and repairs only the
//! devices whose model EE the failure actually moved, via
//! [`IncrementalAllocator::repair`] — so the over-the-air cost is bounded
//! by the blast radius of the failure, not the network size.
//!
//! [`run_faulted`] drives the whole loop over a faulted scenario, one
//! report window per epoch, and measures time-to-recover and
//! fairness-under-failure for three policies: `Static` (the paper's
//! one-shot allocation), `Reactive` (detection + masked repair) and
//! `Oracle` (ground-truth failure knowledge, full re-plan) as the upper
//! bound.

use lora_model::NetworkModel;
use lora_phy::TxConfig;
use lora_sim::{FaultConfig, GatewayOutage, JamBurst, SimConfig, SimReport, Simulation, Topology};
use serde::Serialize;

use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::greedy::EfLora;
use crate::incremental::{IncrementalAllocator, IncrementalOutcome};
use crate::strategy::Strategy;

/// Detection and recovery knobs for the [`ResilienceController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResilienceConfig {
    /// A window is *degraded* when its measured minimum EE falls below
    /// this fraction of the healthy baseline.
    pub degraded_fraction: f64,
    /// Consecutive degraded windows required before recovery triggers
    /// (hysteresis — a single collision-heavy window must not re-plan
    /// the network).
    pub trigger_windows: u32,
    /// Windows to wait after a recovery before another may trigger
    /// (cooldown — re-allocation must not flap while the network
    /// re-converges).
    pub cooldown_windows: u32,
    /// A gateway is *suspect* when at least this fraction of the
    /// window's attempts died in its outage counter.
    pub suspect_outage_fraction: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            degraded_fraction: 0.8,
            trigger_windows: 1,
            cooldown_windows: 1,
            suspect_outage_fraction: 0.5,
        }
    }
}

/// What the controller concluded from one report window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Decision {
    /// Minimum EE is at or above the degradation threshold.
    Healthy,
    /// Below threshold, but the hysteresis streak or cooldown is not yet
    /// satisfied; carries the currently suspect gateways.
    Degraded {
        /// Gateways whose outage counters implicate them.
        suspects: Vec<usize>,
    },
    /// Recovery should run now, masking out the suspect gateways.
    Reallocate {
        /// Gateways to mask out of the link budget.
        suspects: Vec<usize>,
    },
}

/// Watches windowed simulation reports and decides when to re-allocate.
///
/// Callers that know the healthy minimum EE — from the allocation-time
/// analytical model, a fault-free calibration window, or a snapshot of a
/// previous controller — must inject it via
/// [`ResilienceController::with_baseline`] (or
/// [`ResilienceController::restore`] when resuming detection state). A
/// controller built with [`ResilienceController::new`] falls back to
/// adopting the *first observed window* as the baseline; that is only
/// sound when the first window is known to be healthy. A controller
/// started (or restarted) in the middle of a fault would adopt the
/// degraded minimum EE as "healthy" and could never fire
/// [`Decision::Reallocate`] — the failure mode the explicit constructors
/// exist to prevent.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceController {
    config: ResilienceConfig,
    baseline_min_ee: Option<f64>,
    streak: u32,
    cooldown: u32,
}

impl ResilienceController {
    /// Creates a controller with no baseline yet (lazy first-window
    /// capture — see the type-level caveat).
    pub fn new(config: ResilienceConfig) -> Self {
        ResilienceController {
            config,
            baseline_min_ee: None,
            streak: 0,
            cooldown: 0,
        }
    }

    /// Creates a controller with the healthy baseline (bits/mJ) injected
    /// up front — the constructor to use whenever the healthy minimum EE
    /// is known, so detection works even when the very first observed
    /// window is already degraded.
    pub fn with_baseline(config: ResilienceConfig, min_ee: f64) -> Self {
        ResilienceController {
            config,
            baseline_min_ee: Some(min_ee),
            streak: 0,
            cooldown: 0,
        }
    }

    /// Rebuilds a controller from persisted detection state (baseline,
    /// hysteresis streak, cooldown) — the snapshot-restore entry point. A
    /// daemon restarting mid-fault restores the *pre-fault* baseline this
    /// way instead of re-capturing a degraded one.
    pub fn restore(
        config: ResilienceConfig,
        baseline_min_ee: Option<f64>,
        streak: u32,
        cooldown: u32,
    ) -> Self {
        ResilienceController {
            config,
            baseline_min_ee,
            streak,
            cooldown,
        }
    }

    /// The baseline the controller compares against, if established.
    pub fn baseline_min_ee(&self) -> Option<f64> {
        self.baseline_min_ee
    }

    /// Consecutive degraded windows observed so far (hysteresis state).
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Windows remaining before another recovery may trigger.
    pub fn cooldown(&self) -> u32 {
        self.cooldown
    }

    /// Ingests one report window and returns the control decision.
    ///
    /// With no baseline established yet, the window's own minimum EE
    /// becomes the baseline (documented fallback — prefer
    /// [`ResilienceController::with_baseline`]).
    pub fn observe(&mut self, report: &SimReport) -> Decision {
        let min_ee = report.min_energy_efficiency_bits_per_mj();
        let baseline = *self.baseline_min_ee.get_or_insert(min_ee);
        self.cooldown = self.cooldown.saturating_sub(1);
        if min_ee >= self.config.degraded_fraction * baseline {
            self.streak = 0;
            return Decision::Healthy;
        }
        self.streak = self.streak.saturating_add(1);
        let suspects = suspect_gateways(report, self.config.suspect_outage_fraction);
        if self.streak >= self.config.trigger_windows && self.cooldown == 0 {
            self.streak = 0;
            self.cooldown = self.config.cooldown_windows;
            Decision::Reallocate { suspects }
        } else {
            Decision::Degraded { suspects }
        }
    }
}

/// Gateways whose outage counter absorbed at least `fraction` of the
/// window's transmission attempts — the observable signature of a downed
/// gateway at the network server.
pub fn suspect_gateways(report: &SimReport, fraction: f64) -> Vec<usize> {
    let attempts: u64 = report.devices.iter().map(|d| u64::from(d.attempts)).sum();
    if attempts == 0 {
        return Vec::new();
    }
    report
        .gateways
        .iter()
        .enumerate()
        .filter(|(_, g)| g.outage_drops as f64 >= fraction * attempts as f64)
        .map(|(k, _)| k)
        .collect()
}

/// Repairs `current` against a link budget with `failed` gateways masked
/// out.
///
/// Only the devices whose model EE the mask actually moves (relative
/// change above 1 ppm) are re-scanned; everyone else keeps their
/// configuration verbatim. With an empty `failed` list the allocation is
/// returned unchanged.
///
/// # Errors
///
/// [`AllocError::InvalidParameter`] when a failed index is out of range
/// or *every* gateway is masked, plus the usual model errors.
pub fn reallocate_masked(
    config: &SimConfig,
    topology: &Topology,
    current: &[TxConfig],
    failed: &[usize],
) -> Result<IncrementalOutcome, AllocError> {
    let n_gw = topology.gateway_count();
    if failed.iter().any(|&g| g >= n_gw) {
        return Err(AllocError::InvalidParameter {
            reason: "failed gateway index out of range",
        });
    }
    let surviving: Vec<_> = (0..n_gw)
        .filter(|g| !failed.contains(g))
        .map(|g| topology.gateways()[g])
        .collect();
    if surviving.is_empty() {
        return Err(AllocError::InvalidParameter {
            reason: "cannot mask every gateway out of the link budget",
        });
    }
    let masked_topo =
        Topology::from_sites(topology.devices().to_vec(), surviving, topology.radius_m());
    let masked_model = NetworkModel::new(config, &masked_topo);
    let ctx = AllocationContext::new(config, &masked_topo, &masked_model);

    // Blast radius: devices whose EE the mask moved. The survivors'
    // reception terms are untouched, so everyone else's EE is unchanged
    // up to float noise.
    let full_model = NetworkModel::new(config, topology);
    let before = full_model.evaluate(current);
    let mut state = masked_model.state(current.to_vec())?;
    let affected: Vec<usize> = before
        .iter()
        .zip(state.ee_all())
        .enumerate()
        .filter(|(_, (b, a))| (*b - *a).abs() > 1e-6 * b.abs().max(1e-12))
        .map(|(i, _)| i)
        .collect();

    IncrementalAllocator::default().repair(&mut state, ctx.candidates(), &affected)
}

/// Recovery policy compared by [`run_faulted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RecoveryMode {
    /// The paper's one-shot allocation, never adjusted.
    Static,
    /// [`ResilienceController`] detection plus [`reallocate_masked`]
    /// repair, applied from the epoch after detection.
    Reactive,
    /// Ground-truth failure knowledge: a full EF-LoRa re-plan on the
    /// masked topology the moment the failed set changes (upper bound).
    Oracle,
}

/// One epoch of a faulted run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochReport {
    /// Epoch index, 0-based.
    pub epoch: u32,
    /// Measured minimum per-device EE, bits/mJ.
    pub min_ee: f64,
    /// Measured mean per-device EE, bits/mJ.
    pub mean_ee: f64,
    /// Jain fairness over per-device EE.
    pub jain: f64,
    /// Mean packet reception ratio.
    pub mean_prr: f64,
    /// Gateways down for at least half the epoch (ground truth).
    pub failed_gateways: Vec<usize>,
    /// Gateways the controller suspects from the report alone.
    pub suspects: Vec<usize>,
    /// Whether the controller judged the window degraded.
    pub degraded: bool,
    /// Whether a re-allocation was applied after this epoch.
    pub reallocated: bool,
    /// Devices whose configuration the re-allocation changed.
    pub reconfigured: usize,
}

/// Outcome of [`run_faulted`]: the epoch trajectory plus recovery timing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceRun {
    /// Policy that produced this run.
    pub mode: RecoveryMode,
    /// Healthy minimum EE measured on a fault-free epoch, bits/mJ.
    pub baseline_min_ee: f64,
    /// Per-epoch measurements, in order.
    pub epochs: Vec<EpochReport>,
    /// First degraded epoch, if any.
    pub first_degraded_epoch: Option<u32>,
    /// First epoch at or after the first degradation whose minimum EE is
    /// back at `degraded_fraction × baseline`, if any.
    pub recovered_epoch: Option<u32>,
    /// Seconds from the start of the first degraded epoch to the start
    /// of the recovered epoch.
    pub time_to_recover_s: Option<f64>,
}

impl ResilienceRun {
    /// Minimum EE over the epochs with an active ground-truth failure —
    /// the fairness-under-failure floor.
    pub fn min_ee_under_failure(&self) -> f64 {
        self.epochs
            .iter()
            .filter(|e| !e.failed_gateways.is_empty())
            .map(|e| e.min_ee)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The overlap of `[from_s, to_s)` with epoch `e` of width `width_s`,
/// shifted into epoch-local time; `None` when they do not intersect.
fn slice_window(from_s: f64, to_s: f64, e: u32, width_s: f64) -> Option<(f64, f64)> {
    let lo = f64::from(e) * width_s;
    let hi = lo + width_s;
    let from = from_s.max(lo);
    let to = to_s.min(hi);
    (from < to).then_some((from - lo, to - lo))
}

/// Runs a faulted scenario epoch by epoch under one recovery policy.
///
/// `config.duration_s` is the epoch width; the fault processes in
/// `config.faults` (plus any hand-placed `config.outages`) are compiled
/// once over the whole `epochs × width` horizon from `config.seed`, then
/// sliced per epoch — so the fault timeline is identical across the
/// three [`RecoveryMode`]s and every run of the same seed. Epoch
/// simulations derive their traffic seeds from `config.seed` and the
/// epoch index; a preliminary fault-free epoch measures the healthy
/// baseline.
///
/// `Reactive` feeds every epoch report to a [`ResilienceController`] and
/// applies [`reallocate_masked`] from the next epoch on; when the
/// controller later sees a healthy window while devices are still
/// allocated against a mask, the mask is dropped and the original
/// allocation restored (re-integration). `Oracle` re-plans with full
/// EF-LoRa whenever the ground-truth failed set changes, before the
/// epoch runs.
///
/// # Errors
///
/// Propagates allocation failures; simulation construction failures are
/// surfaced as [`AllocError::InvalidParameter`].
pub fn run_faulted(
    config: &SimConfig,
    topology: &Topology,
    initial: &[TxConfig],
    epochs: u32,
    mode: RecoveryMode,
    rc: &ResilienceConfig,
) -> Result<ResilienceRun, AllocError> {
    let width = config.duration_s;
    let horizon = f64::from(epochs) * width;
    let n_gw = topology.gateway_count();

    // The full-horizon fault timeline: hand-placed outages first, then
    // the compiled processes — identical for every mode.
    let fault_cfg = config.faults.clone().unwrap_or_default();
    let (mut windows, jam_bursts): (Vec<GatewayOutage>, Vec<JamBurst>) = {
        let (compiled, bursts) = fault_cfg.compile(config.seed, horizon);
        (compiled, bursts)
    };
    let mut all_windows = config.outages.clone();
    all_windows.append(&mut windows);

    let run_epoch = |e: u32, clean: bool, alloc: &[TxConfig]| -> Result<SimReport, AllocError> {
        let mut cfg = config.clone();
        cfg.seed = config.seed ^ (u64::from(e).wrapping_mul(0x9e37_79b9) + 1);
        cfg.outages = if clean {
            Vec::new()
        } else {
            all_windows
                .iter()
                .filter_map(|o| {
                    slice_window(o.from_s, o.to_s, e, width).map(|(from_s, to_s)| GatewayOutage {
                        gateway: o.gateway,
                        from_s,
                        to_s,
                    })
                })
                .collect()
        };
        let epoch_bursts: Vec<JamBurst> = if clean {
            Vec::new()
        } else {
            jam_bursts
                .iter()
                .filter_map(|b| {
                    slice_window(b.from_s, b.to_s, e, width).map(|(from_s, to_s)| JamBurst {
                        channel: b.channel,
                        from_s,
                        to_s,
                        power_mw: b.power_mw,
                    })
                })
                .collect()
        };
        cfg.faults = if !clean && (!epoch_bursts.is_empty() || !fault_cfg.backhaul.is_empty()) {
            Some(FaultConfig {
                jam_bursts: epoch_bursts,
                backhaul: fault_cfg.backhaul.clone(),
                ..FaultConfig::default()
            })
        } else {
            None
        };
        let sim = Simulation::new(cfg, topology.clone(), alloc.to_vec()).map_err(|_| {
            AllocError::InvalidParameter {
                reason: "simulator rejected the faulted epoch config",
            }
        })?;
        Ok(sim.run())
    };

    // Healthy baseline: epoch 0's traffic with every fault stripped.
    let baseline_min_ee = run_epoch(0, true, initial)?.min_energy_efficiency_bits_per_mj();
    let mut controller = ResilienceController::with_baseline(*rc, baseline_min_ee);

    let mut alloc = initial.to_vec();
    let mut active_mask: Vec<usize> = Vec::new();
    let mut oracle_failed: Vec<usize> = Vec::new();
    let mut reports = Vec::with_capacity(epochs as usize);
    let mut first_degraded = None;
    let mut recovered = None;

    for e in 0..epochs {
        // Ground truth: gateways down for at least half this epoch.
        let failed_gateways: Vec<usize> = (0..n_gw)
            .filter(|&g| {
                let downtime: f64 = all_windows
                    .iter()
                    .filter(|o| o.gateway == g)
                    .filter_map(|o| slice_window(o.from_s, o.to_s, e, width))
                    .map(|(from, to)| to - from)
                    .sum();
                downtime >= 0.5 * width
            })
            .collect();

        // The oracle acts on ground truth *before* the epoch runs.
        let mut reallocated = false;
        let mut reconfigured = 0usize;
        if mode == RecoveryMode::Oracle && failed_gateways != oracle_failed {
            let replanned = oracle_replan(config, topology, &failed_gateways)?;
            reconfigured = alloc.iter().zip(&replanned).filter(|(a, b)| a != b).count();
            reallocated = reconfigured > 0;
            alloc = replanned;
            oracle_failed = failed_gateways.clone();
        }

        let report = run_epoch(e, false, &alloc)?;
        let min_ee = report.min_energy_efficiency_bits_per_mj();
        let decision = controller.observe(&report);
        let degraded = !matches!(decision, Decision::Healthy);
        let suspects = match &decision {
            Decision::Healthy => Vec::new(),
            Decision::Degraded { suspects } | Decision::Reallocate { suspects } => suspects.clone(),
        };

        if degraded && first_degraded.is_none() {
            first_degraded = Some(e);
        }
        if first_degraded.is_some()
            && recovered.is_none()
            && min_ee >= rc.degraded_fraction * baseline_min_ee
        {
            recovered = Some(e);
        }

        // Reactive recovery applies from the next epoch (one window of
        // detection latency, as a real network server would incur).
        if mode == RecoveryMode::Reactive {
            match decision {
                Decision::Reallocate { suspects } => {
                    let outcome = reallocate_masked(config, topology, &alloc, &suspects)?;
                    reconfigured = outcome.reconfigured;
                    reallocated = reconfigured > 0;
                    alloc = outcome.allocation.as_slice().to_vec();
                    active_mask = suspects;
                }
                Decision::Healthy if !active_mask.is_empty() => {
                    // Re-integration: the network is healthy *and* none of
                    // the masked gateways still shows an outage signature
                    // (a recovered-but-masked network is healthy too — the
                    // mask must only drop once the gateway is truly back).
                    let still_out = suspect_gateways(&report, rc.suspect_outage_fraction);
                    if !active_mask.iter().any(|g| still_out.contains(g)) {
                        reconfigured = alloc.iter().zip(initial).filter(|(a, b)| a != b).count();
                        reallocated = reconfigured > 0;
                        alloc = initial.to_vec();
                        active_mask.clear();
                    }
                }
                _ => {}
            }
        }

        reports.push(EpochReport {
            epoch: e,
            min_ee,
            mean_ee: report.mean_energy_efficiency_bits_per_mj(),
            jain: report.jain_fairness(),
            mean_prr: report.mean_prr(),
            failed_gateways,
            suspects,
            degraded,
            reallocated,
            reconfigured,
        });
    }

    let time_to_recover_s = match (first_degraded, recovered) {
        (Some(d), Some(r)) => Some(f64::from(r - d) * width),
        _ => None,
    };
    Ok(ResilienceRun {
        mode,
        baseline_min_ee,
        epochs: reports,
        first_degraded_epoch: first_degraded,
        recovered_epoch: recovered,
        time_to_recover_s,
    })
}

/// Full EF-LoRa re-plan on the masked topology (oracle upper bound).
fn oracle_replan(
    config: &SimConfig,
    topology: &Topology,
    failed: &[usize],
) -> Result<Vec<TxConfig>, AllocError> {
    let n_gw = topology.gateway_count();
    let surviving: Vec<_> = (0..n_gw)
        .filter(|g| !failed.contains(g))
        .map(|g| topology.gateways()[g])
        .collect();
    if surviving.is_empty() {
        return Err(AllocError::InvalidParameter {
            reason: "cannot mask every gateway out of the link budget",
        });
    }
    let masked_topo =
        Topology::from_sites(topology.devices().to_vec(), surviving, topology.radius_m());
    let model = NetworkModel::new(config, &masked_topo);
    let ctx = AllocationContext::new(config, &masked_topo, &model);
    Ok(EfLora::default().allocate(&ctx)?.as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::path_loss::LinkEnvironment;
    use lora_phy::Fading;
    use lora_sim::topology::{DeviceSite, Position};
    use lora_sim::{DeviceStats, GatewayStats};

    fn report_with(min_ee: f64, outage_frac: f64) -> SimReport {
        let attempts = 100u32;
        SimReport {
            devices: vec![DeviceStats {
                attempts,
                delivered: attempts,
                energy_j: 1.0,
                ee_bits_per_mj: min_ee,
                lifetime_s: None,
            }],
            gateways: vec![GatewayStats {
                outage_drops: (outage_frac * f64::from(attempts)) as u64,
                decoded: attempts as u64,
                ..GatewayStats::default()
            }],
            frames_delivered: u64::from(attempts),
            duplicate_copies: 0,
            duration_s: 600.0,
        }
    }

    #[test]
    fn controller_needs_the_hysteresis_streak() {
        let mut c = ResilienceController::with_baseline(
            ResilienceConfig {
                trigger_windows: 2,
                ..ResilienceConfig::default()
            },
            10.0,
        );
        assert_eq!(c.observe(&report_with(9.0, 0.0)), Decision::Healthy);
        // One degraded window arms the streak; the second fires.
        assert!(matches!(
            c.observe(&report_with(1.0, 0.9)),
            Decision::Degraded { .. }
        ));
        assert!(matches!(
            c.observe(&report_with(1.0, 0.9)),
            Decision::Reallocate { .. }
        ));
    }

    #[test]
    fn controller_cooldown_rate_limits_reallocation() {
        let mut c = ResilienceController::with_baseline(
            ResilienceConfig {
                trigger_windows: 1,
                cooldown_windows: 2,
                ..ResilienceConfig::default()
            },
            10.0,
        );
        assert!(matches!(
            c.observe(&report_with(1.0, 0.9)),
            Decision::Reallocate { .. }
        ));
        // Still degraded, but the cooldown holds recovery back.
        assert!(matches!(
            c.observe(&report_with(1.0, 0.9)),
            Decision::Degraded { .. }
        ));
        assert!(matches!(
            c.observe(&report_with(1.0, 0.9)),
            Decision::Reallocate { .. }
        ));
    }

    #[test]
    fn healthy_windows_reset_the_streak() {
        let mut c = ResilienceController::with_baseline(
            ResilienceConfig {
                trigger_windows: 2,
                ..ResilienceConfig::default()
            },
            10.0,
        );
        assert!(matches!(
            c.observe(&report_with(1.0, 0.0)),
            Decision::Degraded { .. }
        ));
        assert_eq!(c.observe(&report_with(10.0, 0.0)), Decision::Healthy);
        // The streak restarted: one degraded window is not enough again.
        assert!(matches!(
            c.observe(&report_with(1.0, 0.0)),
            Decision::Degraded { .. }
        ));
    }

    #[test]
    fn first_window_establishes_the_baseline() {
        let mut c = ResilienceController::new(ResilienceConfig::default());
        assert_eq!(c.observe(&report_with(5.0, 0.0)), Decision::Healthy);
        assert_eq!(c.baseline_min_ee(), Some(5.0));
        // Default hysteresis is a single window, so the drop fires at once.
        assert!(matches!(
            c.observe(&report_with(1.0, 0.0)),
            Decision::Reallocate { .. }
        ));
    }

    /// Regression: a lazily-seeded controller started *during* a fault
    /// adopts the degraded floor as its baseline and stays blind — while
    /// one constructed with the known healthy baseline fires on the very
    /// first window.
    #[test]
    fn baseline_injection_detects_a_fault_present_at_startup() {
        // Lazy capture: 1.0 becomes "healthy", so neither the degraded
        // windows nor the eventual true recovery ever trigger repair.
        let mut lazy = ResilienceController::new(ResilienceConfig::default());
        assert_eq!(lazy.observe(&report_with(1.0, 0.9)), Decision::Healthy);
        assert_eq!(lazy.observe(&report_with(1.0, 0.9)), Decision::Healthy);
        assert_eq!(lazy.baseline_min_ee(), Some(1.0));

        // Injected baseline: the same first window fires immediately.
        let mut informed = ResilienceController::with_baseline(ResilienceConfig::default(), 10.0);
        assert!(matches!(
            informed.observe(&report_with(1.0, 0.9)),
            Decision::Reallocate { suspects } if suspects == vec![0]
        ));
    }

    #[test]
    fn restore_resumes_detection_state() {
        // A controller two-thirds through a three-window hysteresis
        // streak is snapshotted and restored; one more degraded window
        // completes the streak exactly as it would have uninterrupted.
        let config = ResilienceConfig {
            trigger_windows: 3,
            ..ResilienceConfig::default()
        };
        let mut original = ResilienceController::with_baseline(config, 10.0);
        assert!(matches!(
            original.observe(&report_with(1.0, 0.9)),
            Decision::Degraded { .. }
        ));
        assert!(matches!(
            original.observe(&report_with(1.0, 0.9)),
            Decision::Degraded { .. }
        ));

        let mut restored = ResilienceController::restore(
            config,
            original.baseline_min_ee(),
            original.streak(),
            original.cooldown(),
        );
        assert_eq!(restored, original);
        assert!(matches!(
            restored.observe(&report_with(1.0, 0.9)),
            Decision::Reallocate { .. }
        ));
    }

    #[test]
    fn suspects_come_from_outage_counters() {
        let r = report_with(1.0, 0.9);
        assert_eq!(suspect_gateways(&r, 0.5), vec![0]);
        assert!(suspect_gateways(&r, 0.95).is_empty());
    }

    /// The asymmetric recovery deployment (NLoS, β = 4.0 throughout, so
    /// ranges actually bind): gateway A at the origin serves a far arc at
    /// 4.2 km — SF10 at 14 dBm is their only feasible configuration, and
    /// their EE is the healthy network floor. Gateway B sits 4.5 km from
    /// A with a cluster a few hundred metres away; EF-LoRa parks the
    /// cluster at SF7 / low power via B. The arc is on the far side, out
    /// of B's range entirely. When B fails, the cluster's SF7 frames
    /// cannot reach A (≈ −130.5 dBm received vs −123 dBm SF7
    /// sensitivity) and its EE collapses to zero until a re-allocation
    /// lifts it to SF10 / 14 dBm toward A.
    fn recovery_topology(far: usize, cluster: usize) -> Topology {
        let mut devices = Vec::new();
        for i in 0..far {
            // Angles 90°–270°: the half-plane away from gateway B.
            let angle = std::f64::consts::PI * (0.5 + i as f64 / (far - 1) as f64);
            devices.push(DeviceSite {
                position: Position::new(4_200.0 * angle.cos(), 4_200.0 * angle.sin()),
                environment: LinkEnvironment::NonLineOfSight,
            });
        }
        for i in 0..cluster {
            devices.push(DeviceSite {
                position: Position::new(4_250.0 + 8.0 * i as f64, 0.0),
                environment: LinkEnvironment::NonLineOfSight,
            });
        }
        let gateways = vec![Position::new(0.0, 0.0), Position::new(4_500.0, 0.0)];
        Topology::from_sites(devices, gateways, 5_000.0)
    }

    fn recovery_scenario() -> (SimConfig, Topology, Vec<TxConfig>) {
        let mut config = SimConfig::builder()
            .seed(17)
            .duration_s(1_800.0)
            .report_interval_s(600.0)
            .build();
        config.fading = Fading::None;
        let topology = recovery_topology(6, 6);
        // Gateway B (index 1) is down from epoch 1 onward (horizon 4
        // epochs × 1800 s).
        config.outages.push(GatewayOutage {
            gateway: 1,
            from_s: 1_800.0,
            to_s: 7_200.0,
        });
        let model = NetworkModel::new(&config, &topology);
        let ctx = AllocationContext::new(&config, &topology, &model);
        let alloc = EfLora::default()
            .allocate(&ctx)
            .unwrap()
            .as_slice()
            .to_vec();
        (config, topology, alloc)
    }

    #[test]
    fn reactive_recovery_restores_the_min_ee_floor_where_static_does_not() {
        // The ISSUE acceptance demo: after the gateway failure, reactive
        // recovery restores the minimum EE to ≥ 80 % of the healthy
        // baseline; the static allocation stays collapsed.
        let (config, topology, alloc) = recovery_scenario();
        let rc = ResilienceConfig::default();
        let static_run =
            run_faulted(&config, &topology, &alloc, 4, RecoveryMode::Static, &rc).unwrap();
        let reactive =
            run_faulted(&config, &topology, &alloc, 4, RecoveryMode::Reactive, &rc).unwrap();

        let baseline = static_run.baseline_min_ee;
        assert!(baseline > 0.0);
        // Both see the same failure at epoch 1.
        assert_eq!(static_run.first_degraded_epoch, Some(1));
        assert_eq!(reactive.first_degraded_epoch, Some(1));
        // Static never comes back …
        let static_floor = static_run.epochs.last().unwrap().min_ee;
        assert!(
            static_floor < 0.8 * baseline,
            "static should stay degraded: {static_floor} vs baseline {baseline}"
        );
        assert_eq!(static_run.recovered_epoch, None);
        // … while the reactive loop detects, masks gateway 1 and restores
        // the floor within the horizon.
        let recovered = reactive.recovered_epoch.expect("reactive run must recover");
        let recovered_ee = reactive.epochs[recovered as usize].min_ee;
        assert!(
            recovered_ee >= 0.8 * baseline,
            "recovered {recovered_ee} below 80 % of baseline {baseline}"
        );
        assert!(reactive.time_to_recover_s.unwrap() > 0.0);
        assert!(reactive
            .epochs
            .iter()
            .any(|e| e.reallocated && e.reconfigured > 0));
        // The controller fingered the right gateway.
        assert!(reactive.epochs[1].suspects.contains(&1));
    }

    #[test]
    fn oracle_replan_is_at_least_as_good_as_reactive() {
        let (config, topology, alloc) = recovery_scenario();
        let rc = ResilienceConfig::default();
        let reactive =
            run_faulted(&config, &topology, &alloc, 4, RecoveryMode::Reactive, &rc).unwrap();
        let oracle = run_faulted(&config, &topology, &alloc, 4, RecoveryMode::Oracle, &rc).unwrap();
        // The oracle re-plans before the failed epoch even runs, so its
        // fairness floor under failure can only be better or equal.
        assert!(
            oracle.min_ee_under_failure() >= reactive.min_ee_under_failure() - 1e-9,
            "oracle {} vs reactive {}",
            oracle.min_ee_under_failure(),
            reactive.min_ee_under_failure()
        );
    }

    #[test]
    fn mask_is_dropped_once_the_gateway_returns() {
        // Outage spans epochs 1–2 only. The reactive loop must keep the
        // mask through epoch 2 (healthy again, but B's outage signature
        // persists) and restore the original plan after epoch 3, when B
        // is truly back.
        let (mut config, topology, alloc) = {
            let (mut c, t, a) = recovery_scenario();
            c.outages.clear();
            (c, t, a)
        };
        config.outages.push(GatewayOutage {
            gateway: 1,
            from_s: 1_800.0,
            to_s: 5_400.0,
        });
        let rc = ResilienceConfig::default();
        let run = run_faulted(&config, &topology, &alloc, 5, RecoveryMode::Reactive, &rc).unwrap();

        assert_eq!(run.first_degraded_epoch, Some(1));
        assert!(run.epochs[1].reallocated, "repair after the degraded epoch");
        // Epoch 2: recovered under the mask, gateway still down — the
        // mask must hold.
        assert!(run.epochs[2].min_ee >= 0.8 * run.baseline_min_ee);
        assert!(
            !run.epochs[2].reallocated,
            "no re-integration while B is down"
        );
        // Epoch 3: B is back, signature cleared — restore the original
        // plan; epoch 4 runs it untouched at the healthy floor.
        assert!(run.epochs[3].reallocated, "re-integration once B returns");
        assert_eq!(run.epochs[4].reconfigured, 0);
        assert!(run.epochs[4].min_ee >= 0.8 * run.baseline_min_ee);
    }

    #[test]
    fn runs_are_deterministic() {
        let (config, topology, alloc) = recovery_scenario();
        let rc = ResilienceConfig::default();
        let a = run_faulted(&config, &topology, &alloc, 3, RecoveryMode::Reactive, &rc).unwrap();
        let b = run_faulted(&config, &topology, &alloc, 3, RecoveryMode::Reactive, &rc).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn masked_reallocation_validates_inputs() {
        let (config, topology, alloc) = recovery_scenario();
        assert!(matches!(
            reallocate_masked(&config, &topology, &alloc, &[7]),
            Err(AllocError::InvalidParameter { .. })
        ));
        assert!(matches!(
            reallocate_masked(&config, &topology, &alloc, &[0, 1]),
            Err(AllocError::InvalidParameter { .. })
        ));
        // Empty mask: nothing is affected, nothing moves.
        let same = reallocate_masked(&config, &topology, &alloc, &[]).unwrap();
        assert_eq!(same.allocation.as_slice(), alloc.as_slice());
        assert_eq!(same.reconfigured, 0);
    }

    #[test]
    fn masked_reallocation_moves_only_the_blast_radius() {
        let (config, topology, alloc) = recovery_scenario();
        let outcome = reallocate_masked(&config, &topology, &alloc, &[1]).unwrap();
        assert!(outcome.reconfigured > 0, "the cluster must be re-homed");
        // The far ring keeps serving gateway A: devices whose EE the mask
        // does not move stay verbatim unless they share a repaired group.
        assert_eq!(outcome.allocation.len(), alloc.len());
        assert!(outcome.min_ee > 0.0);
    }

    #[test]
    fn repair_entry_point_validates_lengths_and_indices() {
        let (config, topology, alloc) = recovery_scenario();
        let model = NetworkModel::new(&config, &topology);
        let ctx = AllocationContext::new(&config, &topology, &model);
        let repairer = IncrementalAllocator::default();
        // A short allocation cannot be bound to the model at all.
        assert!(matches!(
            model.state(alloc[..alloc.len() - 1].to_vec()),
            Err(lora_model::ModelError::AllocationLengthMismatch { .. })
        ));
        let mut state = model.state(alloc.clone()).unwrap();
        assert!(matches!(
            repairer.repair(&mut state, ctx.candidates(), &[alloc.len()]),
            Err(AllocError::InvalidParameter { .. })
        ));
        let noop = repairer.repair(&mut state, ctx.candidates(), &[]).unwrap();
        assert_eq!(noop.allocation.as_slice(), alloc.as_slice());
        assert_eq!(state.alloc(), alloc.as_slice());
    }
}
