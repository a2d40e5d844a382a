//! The daemon's in-memory state: live population, allocation, model
//! state, resilience controller and counters, plus snapshot/restore for
//! crash recovery.
//!
//! The daemon keeps one live [`ModelState`] that owns its
//! [`NetworkModel`] and survives from request to request. It is built once,
//! at load or restore. A churn write applies the staged population change
//! to it as a state operation ([`ModelState::join_rows`],
//! [`ModelState::retire_rows`], [`ModelState::refresh_intervals`]), which
//! patches the model's rows and the state's per-device terms together and
//! leaves the state equal to a fresh build, then repairs it in place
//! ([`lora_scenario::churn::finish_event`]). A `Metrics` query reads the
//! state's cached EE. So neither builds a model, a topology, an allocation
//! context or a state.

use serde::{Deserialize, Serialize};

use ef_lora::fairness::{jain_index, mean, min_ee};
use ef_lora::resilience::{reallocate_masked, Decision, ResilienceConfig, ResilienceController};
use ef_lora::{candidate_grid, AllocationContext, IncrementalAllocator, Strategy};
use lora_model::{ModelState, NetworkModel};
use lora_phy::{TxConfig, TxPowerDbm};
use lora_scenario::churn::{
    self, finish_event, refresh_intervals, stage_event, ChurnContext, EventOutcome, StagedAdjust,
};
use lora_scenario::spec::{ChurnEvent, ClassSpec};
use lora_scenario::{compile, Population, ScenarioError, ScenarioSpec};
use lora_sim::{DeviceSite, Position, SimConfig, SimReport, Simulation, Topology};

/// Schema tag written into every snapshot image.
pub const SNAPSHOT_SCHEMA: &str = "ef-lora-serve/v1";

/// Schema tag of the checksummed snapshot *file* header (first line of
/// every file written by [`ServeState::snapshot_to_file`] since the
/// journal landed; headerless files parse through the legacy path).
pub const SNAPSHOT_FILE_SCHEMA: &str = "ef-lora-serve-snapshot/v1";

/// Seed tag of the per-window measurement stream ("mwindow").
pub(crate) const WINDOW_TAG: u64 = 0x6d77_696e_646f_7700;

/// Typed failure of snapshot persistence or recovery.
///
/// `Corrupt` is the load-bearing variant: recovery treats it as "the
/// snapshot cannot be trusted" and falls back to journal-only recovery
/// instead of booting from a half-written or bit-flipped image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the snapshot.
    Io {
        /// Path involved.
        path: String,
        /// What failed, e.g. `read`, `write`, `rename`.
        op: &'static str,
        /// The underlying error, rendered.
        message: String,
    },
    /// The file exists but its bytes cannot be trusted: checksum
    /// mismatch, truncated body, malformed JSON, wrong schema tag or
    /// inconsistent population vectors.
    Corrupt {
        /// Path involved.
        path: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, op, message } => {
                write!(f, "snapshot {op} failed for {path}: {message}")
            }
            SnapshotError::Corrupt { path, reason } => {
                write!(f, "snapshot {path} is corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Boot-time recovery summary, surfaced on the wire in
/// [`crate::protocol::Response::Info`]. `None` on a daemon that booted
/// fresh (or through the legacy snapshot-only `--restore` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// Whether the on-disk snapshot was loaded as the recovery base
    /// (`false` means journal-only recovery).
    pub snapshot_loaded: bool,
    /// Journal mutations re-applied on top of the base during recovery.
    pub replayed: u64,
}

/// Result of one measurement window (see [`ServeState::measure`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Measured `[min_ee, mean_ee, jain, mean_prr]` of the window.
    pub metrics: [f64; 4],
    /// The controller's decision for the window.
    pub decision: Decision,
    /// Devices reconfigured by the auto-repair (0 unless the decision
    /// was [`Decision::Reallocate`]).
    pub reconfigured: usize,
}

/// Everything the daemon holds in memory.
///
/// The state is deliberately single-threaded: the server applies churn,
/// queries and measurement windows strictly in arrival order, which is
/// what makes a snapshot a consistent cut and every run replayable.
#[derive(Debug, Clone)]
pub struct ServeState {
    spec: ScenarioSpec,
    classes: Vec<ClassSpec>,
    gateways: Vec<Position>,
    radius_m: f64,
    config: SimConfig,
    /// The population; `pop.alloc` is the allocation snapshots record,
    /// and `live` is always bound to it.
    pop: Population,
    /// The live model state of the population, owning its model. Churn
    /// applies to it as state operations — joins extend rows, leaves
    /// retire them, migrations refresh intervals — and the repairs run
    /// on it in place, so it is never rebuilt; the conformance
    /// differential suite proves its model stays bitwise equal to a
    /// fresh `NetworkModel::new` and its answers to a from-scratch
    /// daemon's.
    live: ModelState<NetworkModel>,
    /// The canonical candidate grid every repair scans.
    grid: Vec<TxConfig>,
    controller: ResilienceController,
    events_applied: u64,
    windows_observed: u64,
    last_decision: String,
    /// From-scratch model and state builds performed on behalf of this
    /// state. Load and restore cost one each, the live state's; the
    /// steady state (churn, queries, measurement windows) must never add
    /// more.
    model_rebuilds: u64,
    /// How this state came back from disk, when it did (set only by
    /// journal recovery — [`crate::journal::recover`]).
    recovery: Option<RecoveryInfo>,
}

/// On-disk crash-recovery image of a [`ServeState`].
///
/// Includes the resilience baseline and detection counters so a daemon
/// restarted in the middle of a fault still compares windows against the
/// *healthy* minimum EE instead of adopting the degraded one — the
/// failure mode `ResilienceController::new`'s lazy capture would hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format tag; always [`SNAPSHOT_SCHEMA`].
    pub schema: String,
    /// The scenario the daemon was loaded from.
    pub spec: ScenarioSpec,
    /// Simulator configuration (intervals refreshed for the live
    /// population).
    pub config: SimConfig,
    /// Gateway positions.
    pub gateways: Vec<Position>,
    /// Region radius in metres.
    pub radius_m: f64,
    /// Live device sites.
    pub sites: Vec<DeviceSite>,
    /// Per-device class indices.
    pub class_of: Vec<usize>,
    /// Live allocation.
    pub alloc: Vec<TxConfig>,
    /// Healthy-baseline minimum EE of the resilience controller.
    pub baseline_min_ee: Option<f64>,
    /// Degraded-window streak of the controller.
    pub streak: u32,
    /// Cooldown windows remaining.
    pub cooldown: u32,
    /// Churn events applied so far (also the churn-stream cursor).
    pub events_applied: u64,
    /// Measurement windows observed so far (also the window-seed
    /// cursor).
    pub windows_observed: u64,
    /// Last controller decision, as a debug string.
    pub last_decision: String,
}

impl ServeState {
    /// Compiles `spec`, allocates the initial deployment with
    /// `strategy`, and seeds the resilience controller's baseline from
    /// the allocation-time model minimum EE (explicit injection — see
    /// [`ResilienceController::with_baseline`]).
    ///
    /// # Errors
    ///
    /// Compilation and allocation failures, verbatim.
    pub fn new(spec: ScenarioSpec, strategy: &dyn Strategy) -> Result<Self, ScenarioError> {
        let compiled = compile(&spec)?;
        let classes = compiled.spec.effective_classes();
        let gateways = compiled.topology.gateways().to_vec();
        let radius_m = compiled.topology.radius_m();
        let mut config = compiled.config.clone();
        let mut pop = Population {
            sites: compiled.topology.devices().to_vec(),
            class_of: compiled.class_of.clone(),
            alloc: Vec::new(),
        };
        refresh_intervals(&mut config, &pop.class_of, &classes);
        let topology = Topology::from_sites(pop.sites.clone(), gateways.clone(), radius_m);
        let model = NetworkModel::new(&config, &topology);
        pop.alloc = strategy
            .allocate(&AllocationContext::new(&config, &topology, &model))?
            .into_inner();
        let (live, grid) = bind(&config, model, &pop.alloc).map_err(ef_lora::AllocError::from)?;
        let baseline = min_ee(live.ee_all());
        Ok(ServeState {
            spec,
            classes,
            gateways,
            radius_m,
            config,
            pop,
            live,
            grid,
            controller: ResilienceController::with_baseline(ResilienceConfig::default(), baseline),
            events_applied: 0,
            windows_observed: 0,
            last_decision: "Healthy".to_string(),
            model_rebuilds: 1,
            recovery: None,
        })
    }

    /// Scenario name the daemon serves.
    pub fn scenario_name(&self) -> &str {
        &self.spec.name
    }

    /// Live device count.
    pub fn device_count(&self) -> usize {
        self.pop.device_count()
    }

    /// Gateway count.
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }

    /// Device-class names, in class-index order.
    pub fn class_names(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.name.clone()).collect()
    }

    /// Churn events applied since load (snapshot-restored included).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Measurement windows observed since load.
    pub fn windows_observed(&self) -> u64 {
        self.windows_observed
    }

    /// Last controller decision, as a debug string.
    pub fn last_decision(&self) -> &str {
        &self.last_decision
    }

    /// The resilience controller (baseline, streak, cooldown).
    pub fn controller(&self) -> &ResilienceController {
        &self.controller
    }

    /// The live state's model, maintained through churn.
    pub fn cached_model(&self) -> &NetworkModel {
        self.live.model()
    }

    /// From-scratch model and state builds this state has paid for: 1
    /// after [`ServeState::new`] or [`ServeState::restore`] (the live
    /// state's build), never incremented afterwards. Regression guard for
    /// the incremental serve path.
    pub fn model_rebuilds(&self) -> u64 {
        self.model_rebuilds
    }

    /// The live allocation.
    pub fn alloc(&self) -> &[TxConfig] {
        &self.pop.alloc
    }

    /// Current configuration of device `index`.
    ///
    /// # Errors
    ///
    /// A message when the index is out of range.
    pub fn device(&self, index: usize) -> Result<TxConfig, String> {
        self.pop.alloc.get(index).copied().ok_or_else(|| {
            format!(
                "device index {index} out of range (population is {})",
                self.pop.device_count()
            )
        })
    }

    /// Analytical-model `[min_ee, mean_ee, jain]` of the live
    /// allocation, bits/mJ, read from the live state's cached EE: every
    /// mutation leaves the state refreshed, so that is bit for bit
    /// [`NetworkModel::evaluate`] of the allocation, and a query builds
    /// nothing.
    pub fn model_metrics(&self) -> [f64; 3] {
        let ee = self.live.ee_all();
        [min_ee(ee), mean(ee), jain_index(ee)]
    }

    /// Applies one churn event through the incremental allocator.
    ///
    /// The event's random draws come from per-event streams derived from
    /// the scenario seed and the events-applied counter
    /// ([`churn::event_churn_rng`] / [`churn::event_join_seed`]), so a
    /// daemon restored from a snapshot continues the exact sequence a
    /// never-restarted daemon would have produced.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError`] from the churn module; the state is
    /// unchanged on error except for a partially-validated event (the
    /// churn module mutates only after validation).
    pub fn apply_churn(&mut self, event: &ChurnEvent) -> Result<EventOutcome, ScenarioError> {
        let ctx = ChurnContext {
            classes: &self.classes,
            spatial: &self.spec.spatial,
            gateways: &self.gateways,
            radius_m: self.radius_m,
        };
        let mut rng = churn::event_churn_rng(self.spec.seed, self.events_applied);
        let join_seed = churn::event_join_seed(self.spec.seed, self.events_applied);
        let staged = stage_event(
            &ctx,
            &mut self.config,
            &mut self.pop,
            event,
            &mut rng,
            join_seed,
        )?;
        // Apply the staged mutation to the live state instead of building
        // a new one: the O(devices × gateways) `powf` attenuation work
        // shrinks to the rows the event actually touched, and the
        // per-device terms to the devices it moved.
        match &staged.adjust {
            StagedAdjust::Noop => {}
            StagedAdjust::Extend { added } => {
                let start = self.pop.sites.len() - added;
                self.live.join_rows(
                    &self.config,
                    &self.pop.sites[start..],
                    &self.gateways,
                    self.radius_m,
                    max_tp(&self.config),
                );
            }
            StagedAdjust::AfterRemoval { leaving, .. } => {
                self.live.retire_rows(&self.config, leaving, self.radius_m);
            }
            StagedAdjust::Repair { .. } => {
                // Migration moves devices between traffic classes: the
                // attenuation rows are untouched, only the reporting
                // intervals (and with them the energy budgets) change.
                self.live.refresh_intervals(&self.config);
            }
        }
        let incremental = IncrementalAllocator::new();
        let outcome = finish_event(
            &mut self.live,
            &self.grid,
            &mut self.pop,
            &incremental,
            staged,
        )?;
        self.events_applied += 1;
        self.debug_assert_live_in_sync();
        Ok(outcome)
    }

    /// Runs one deterministic measurement window through the simulator,
    /// feeds the report to the resilience controller, and — on
    /// [`Decision::Reallocate`] — repairs the allocation with the
    /// suspect gateways masked out of the link budget.
    ///
    /// # Errors
    ///
    /// Simulator construction and repair failures, as strings (the wire
    /// error payload).
    pub fn measure(&mut self) -> Result<WindowOutcome, String> {
        let topology =
            Topology::from_sites(self.pop.sites.clone(), self.gateways.clone(), self.radius_m);
        let mut cfg = self.config.clone();
        cfg.seed = self.config.seed ^ WINDOW_TAG ^ (self.windows_observed << 16);
        // The cached model already paid for the attenuation matrix of
        // this exact deployment; hand it to the simulator instead of
        // recomputing it (byte-identical — see
        // `Simulation::with_attenuation`).
        let sim = Simulation::with_attenuation(
            cfg,
            topology.clone(),
            self.pop.alloc.clone(),
            self.cached_model().shared_attenuation().clone(),
        )
        .map_err(|e| e.to_string())?;
        let report = sim.run();
        self.windows_observed += 1;
        Ok(self.ingest_window(&report, &topology))
    }

    /// Feeds one report window to the controller and auto-repairs on
    /// [`Decision::Reallocate`]. Split from [`ServeState::measure`] so
    /// tests (and future external-telemetry endpoints) can inject
    /// hand-built windows.
    ///
    /// A `Reallocate` without suspect gateways masks nothing, so the
    /// masked repair would return the allocation unchanged; it is skipped
    /// and answers `reconfigured: 0`, as the repair would.
    pub fn ingest_window(&mut self, report: &SimReport, topology: &Topology) -> WindowOutcome {
        let decision = self.controller.observe(report);
        self.last_decision = decision_label(&decision);
        let mut reconfigured = 0;
        if let Decision::Reallocate { suspects } = &decision {
            if !suspects.is_empty() {
                if let Ok(outcome) =
                    reallocate_masked(&self.config, topology, &self.pop.alloc, suspects)
                {
                    reconfigured = outcome.reconfigured;
                    self.adopt(outcome.allocation.into_inner());
                }
            }
        }
        WindowOutcome {
            metrics: [
                report.min_energy_efficiency_bits_per_mj(),
                report.mean_energy_efficiency_bits_per_mj(),
                report.jain_fairness(),
                report.mean_prr(),
            ],
            decision,
            reconfigured,
        }
    }

    /// Moves every device whose configuration `alloc` changes on the live
    /// state, then refreshes it, which leaves it bit for bit a fresh build
    /// of `alloc`; `alloc` becomes the population's allocation.
    fn adopt(&mut self, alloc: Vec<TxConfig>) {
        for (i, (&cfg, old)) in alloc.iter().zip(&self.pop.alloc).enumerate() {
            if cfg != *old {
                self.live.apply(i, cfg);
            }
        }
        self.live.refresh();
        self.pop.alloc = alloc;
        self.debug_assert_live_in_sync();
    }

    /// Checks, in debug builds, that the live state is bound to the
    /// allocation snapshots record.
    fn debug_assert_live_in_sync(&self) {
        debug_assert_eq!(
            self.live.alloc(),
            self.pop.alloc.as_slice(),
            "the live model state lost the population's allocation"
        );
    }

    /// Builds the crash-recovery image of the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            spec: self.spec.clone(),
            config: self.config.clone(),
            gateways: self.gateways.clone(),
            radius_m: self.radius_m,
            sites: self.pop.sites.clone(),
            class_of: self.pop.class_of.clone(),
            alloc: self.pop.alloc.clone(),
            baseline_min_ee: self.controller.baseline_min_ee(),
            streak: self.controller.streak(),
            cooldown: self.controller.cooldown(),
            events_applied: self.events_applied,
            windows_observed: self.windows_observed,
            last_decision: self.last_decision.clone(),
        }
    }

    /// Rebuilds a state from a crash-recovery image. The resilience
    /// controller resumes with the snapshotted baseline and detection
    /// counters ([`ResilienceController::restore`]), so degradation
    /// present *before* the crash is still detected against the healthy
    /// baseline after the restart.
    ///
    /// # Errors
    ///
    /// A message for a wrong schema tag or inconsistent vector lengths.
    pub fn restore(snapshot: Snapshot) -> Result<Self, String> {
        if snapshot.schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot schema `{}` is not `{SNAPSHOT_SCHEMA}`",
                snapshot.schema
            ));
        }
        let n = snapshot.sites.len();
        if snapshot.class_of.len() != n || snapshot.alloc.len() != n {
            return Err(format!(
                "snapshot population vectors disagree: {} sites, {} classes, {} configs",
                n,
                snapshot.class_of.len(),
                snapshot.alloc.len()
            ));
        }
        let classes = snapshot.spec.effective_classes();
        // The model state is never serialized: a restored daemon rebuilds
        // it from the snapshotted sites, so stale rows of devices that
        // left before the crash cannot be resurrected.
        let topology = Topology::from_sites(
            snapshot.sites.clone(),
            snapshot.gateways.clone(),
            snapshot.radius_m,
        );
        let model = NetworkModel::new(&snapshot.config, &topology);
        let (live, grid) =
            bind(&snapshot.config, model, &snapshot.alloc).map_err(|e| e.to_string())?;
        Ok(ServeState {
            classes,
            gateways: snapshot.gateways,
            radius_m: snapshot.radius_m,
            config: snapshot.config,
            pop: Population {
                sites: snapshot.sites,
                class_of: snapshot.class_of,
                alloc: snapshot.alloc,
            },
            live,
            grid,
            controller: ResilienceController::restore(
                ResilienceConfig::default(),
                snapshot.baseline_min_ee,
                snapshot.streak,
                snapshot.cooldown,
            ),
            events_applied: snapshot.events_applied,
            windows_observed: snapshot.windows_observed,
            last_decision: snapshot.last_decision,
            spec: snapshot.spec,
            model_rebuilds: 1,
            recovery: None,
        })
    }

    /// Serializes a snapshot to `path` **atomically**: the image goes to
    /// `path.tmp` first, is `sync_all`'d, and only then renamed over the
    /// target (with a parent-directory fsync), so a crash at any byte
    /// boundary leaves either the old snapshot or the new one — never a
    /// torn file. The first line is a header carrying a CRC32 of the
    /// body, so in-place corruption is detected at load time instead of
    /// being deserialized into a wrong state.
    ///
    /// # Errors
    ///
    /// Filesystem failures, typed.
    pub fn snapshot_to_file(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        write_snapshot_file(&self.snapshot(), path)
    }

    /// Loads a snapshot file written by [`ServeState::snapshot_to_file`].
    /// Checksummed files (header line present) are verified before
    /// parsing; headerless files parse through the legacy path for
    /// compatibility with pre-journal snapshots.
    ///
    /// # Errors
    ///
    /// Filesystem failures and corruption (checksum mismatch, truncated
    /// body, malformed JSON, schema violations), typed.
    pub fn restore_from_file(path: &std::path::Path) -> Result<Self, SnapshotError> {
        ServeState::restore(read_snapshot_file(path)?).map_err(|reason| SnapshotError::Corrupt {
            path: path.display().to_string(),
            reason,
        })
    }

    /// Churn events plus measurement windows applied so far — the single
    /// monotone cursor the write-ahead journal stamps into every record
    /// (each mutating request advances exactly one of the two counters).
    pub fn mutations_applied(&self) -> u64 {
        self.events_applied + self.windows_observed
    }

    /// Boot-time recovery summary (`None` unless this state came out of
    /// [`crate::journal::recover`]).
    pub fn recovery(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Stamps the recovery summary; called by journal recovery once the
    /// replay finished.
    pub(crate) fn set_recovery(&mut self, info: RecoveryInfo) {
        self.recovery = Some(info);
    }
}

/// Binds `alloc` to `model` as the daemon's live state (its one build,
/// counted by [`ServeState::model_rebuilds`]), with the candidate grid of
/// `config`'s region that every repair scans.
fn bind(
    config: &SimConfig,
    model: NetworkModel,
    alloc: &[TxConfig],
) -> Result<(ModelState<NetworkModel>, Vec<TxConfig>), lora_model::ModelError> {
    let grid = candidate_grid(model.channel_count(), &config.region.tx_power_levels());
    Ok((model.into_state(alloc.to_vec())?, grid))
}

/// The region's highest transmit power, which joining devices start at.
fn max_tp(config: &SimConfig) -> TxPowerDbm {
    *config
        .region
        .tx_power_levels()
        .last()
        .expect("regions define at least one TP level")
}

/// Header line of a checksummed snapshot file: schema tag, CRC32 of the
/// body bytes, and the body length (so truncation is caught even when
/// the remaining prefix happens to be valid JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotFileHeader {
    schema: String,
    crc32: u32,
    bytes: u64,
}

/// Writes `snapshot` to `path` atomically with a checksummed header.
///
/// # Errors
///
/// Filesystem failures, typed.
pub(crate) fn write_snapshot_file(
    snapshot: &Snapshot,
    path: &std::path::Path,
) -> Result<(), SnapshotError> {
    use std::io::Write as _;

    let io = |op: &'static str, p: &std::path::Path| {
        let p = p.display().to_string();
        move |e: std::io::Error| SnapshotError::Io {
            path: p.clone(),
            op,
            message: e.to_string(),
        }
    };
    let mut body = serde_json::to_string_pretty(snapshot).expect("snapshots always serialize");
    body.push('\n');
    let header = SnapshotFileHeader {
        schema: SNAPSHOT_FILE_SCHEMA.to_string(),
        crc32: crate::journal::crc32(body.as_bytes()),
        bytes: body.len() as u64,
    };
    let mut contents = serde_json::to_string(&header).expect("headers always serialize");
    contents.push('\n');
    contents.push_str(&body);

    // tmp + sync + rename: the target path never holds a partial write.
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(io("create", &tmp))?;
    file.write_all(contents.as_bytes())
        .map_err(io("write", &tmp))?;
    file.sync_all().map_err(io("sync", &tmp))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io("rename", path))?;
    // Make the rename itself durable: fsync the parent directory.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(io("sync-dir", parent))?;
    }
    Ok(())
}

/// Reads and verifies a snapshot file (checksummed or legacy format).
///
/// # Errors
///
/// Filesystem failures and corruption, typed.
pub(crate) fn read_snapshot_file(path: &std::path::Path) -> Result<Snapshot, SnapshotError> {
    let p = path.display().to_string();
    let corrupt = |reason: String| SnapshotError::Corrupt {
        path: p.clone(),
        reason,
    };
    let body = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
        path: p.clone(),
        op: "read",
        message: e.to_string(),
    })?;
    let payload = if body.starts_with("{\"schema\":\"ef-lora-serve-snapshot/") {
        let (header_line, rest) = body
            .split_once('\n')
            .ok_or_else(|| corrupt("header line is not newline-terminated".to_string()))?;
        let header: SnapshotFileHeader = serde_json::from_str(header_line)
            .map_err(|e| corrupt(format!("unreadable header: {e}")))?;
        if header.schema != SNAPSHOT_FILE_SCHEMA {
            return Err(corrupt(format!(
                "file schema `{}` is not `{SNAPSHOT_FILE_SCHEMA}`",
                header.schema
            )));
        }
        if rest.len() as u64 != header.bytes {
            return Err(corrupt(format!(
                "body is {} bytes, header promises {}",
                rest.len(),
                header.bytes
            )));
        }
        let crc = crate::journal::crc32(rest.as_bytes());
        if crc != header.crc32 {
            return Err(corrupt(format!(
                "checksum mismatch: body crc32 {crc:#010x}, header {:#010x}",
                header.crc32
            )));
        }
        rest
    } else {
        // Legacy pre-journal snapshot: plain JSON, no checksum.
        body.as_str()
    };
    serde_json::from_str(payload).map_err(|e| corrupt(e.to_string()))
}

/// The wire label of a decision (`Debug` without the payload).
pub fn decision_label(decision: &Decision) -> String {
    match decision {
        Decision::Healthy => "Healthy".to_string(),
        Decision::Degraded { .. } => "Degraded".to_string(),
        Decision::Reallocate { .. } => "Reallocate".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use ef_lora::EfLora;
    use lora_scenario::catalog;
    use lora_scenario::spec::ChurnKind;
    use lora_sim::report::DeviceStats;

    fn smoke_state() -> ServeState {
        let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.15);
        ServeState::new(spec, &EfLora::default()).unwrap()
    }

    fn join(count: usize) -> ChurnEvent {
        ChurnEvent {
            epoch: 1,
            event: ChurnKind::Join {
                class: "bursty".into(),
                count,
            },
        }
    }

    #[test]
    fn baseline_is_injected_at_construction() {
        let state = smoke_state();
        let baseline = state.controller().baseline_min_ee().unwrap();
        assert!(baseline > 0.0);
        assert_eq!(baseline, state.model_metrics()[0]);
    }

    #[test]
    fn churn_moves_the_population_and_counters() {
        let mut state = smoke_state();
        let before = state.device_count();
        let outcome = state.apply_churn(&join(4)).unwrap();
        assert_eq!(outcome.joined, 4);
        assert_eq!(state.device_count(), before + 4);
        assert_eq!(state.events_applied(), 1);
        assert!(state.device(before + 3).is_ok());
        assert!(state.device(before + 4).is_err());
    }

    #[test]
    fn snapshot_restore_round_trips_queries() {
        let mut state = smoke_state();
        for i in 0..6u32 {
            let event = ChurnEvent {
                epoch: i + 1,
                event: if i % 2 == 0 {
                    ChurnKind::Join {
                        class: "steady".into(),
                        count: 3,
                    }
                } else {
                    ChurnKind::Leave { count: 2 }
                },
            };
            state.apply_churn(&event).unwrap();
        }
        let restored = ServeState::restore(state.snapshot()).unwrap();
        assert_eq!(restored.device_count(), state.device_count());
        assert_eq!(restored.events_applied(), state.events_applied());
        assert_eq!(restored.model_metrics(), state.model_metrics());
        for i in 0..state.device_count() {
            assert_eq!(restored.device(i).unwrap(), state.device(i).unwrap());
        }
        // And the continuation is identical: same next event, same result.
        let mut a = state;
        let mut b = restored;
        let oa = a.apply_churn(&join(5)).unwrap();
        let ob = b.apply_churn(&join(5)).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(a.model_metrics(), b.model_metrics());
    }

    /// A degraded report window: every device limps at `fraction` of the
    /// baseline EE, with one gateway's outage counter absorbing all
    /// attempts.
    fn degraded_report(state: &ServeState, fraction: f64) -> SimReport {
        let baseline = state.controller().baseline_min_ee().unwrap();
        let n = state.device_count();
        let devices: Vec<DeviceStats> = (0..n)
            .map(|_| DeviceStats {
                attempts: 10,
                delivered: 2,
                energy_j: 1.0,
                ee_bits_per_mj: fraction * baseline,
                lifetime_s: None,
            })
            .collect();
        let mut gateways = vec![Default::default(); state.gateway_count()];
        let g0: &mut lora_sim::report::GatewayStats = &mut gateways[0];
        g0.outage_drops = 10 * n as u64;
        SimReport {
            devices,
            gateways,
            frames_delivered: 2 * n as u64,
            duplicate_copies: 0,
            duration_s: 600.0,
        }
    }

    #[test]
    fn mid_fault_restart_still_detects_degradation() {
        // trigger_windows is 1 by default, so a single degraded window
        // fires. The point under test: the *restored* controller keeps
        // the healthy baseline instead of adopting the degraded window.
        let state = smoke_state();
        let topology = Topology::from_sites(
            state.pop.sites.clone(),
            state.gateways.clone(),
            state.radius_m,
        );
        let mut restored = ServeState::restore(state.snapshot()).unwrap();
        let report = degraded_report(&restored, 0.1);
        let outcome = restored.ingest_window(&report, &topology);
        assert!(
            matches!(outcome.decision, Decision::Reallocate { ref suspects } if suspects == &vec![0]),
            "restored controller must fire against the snapshotted baseline, got {:?}",
            outcome.decision
        );
        assert_eq!(restored.last_decision(), "Reallocate");
    }

    #[test]
    fn queries_never_rebuild_the_model() {
        // Regression: `model_metrics` used to rebuild the topology and
        // `NetworkModel` on every Metrics query, churn or no churn.
        // Back-to-back queries and measurement windows must leave the
        // rebuild counter at the single load-time construction.
        let mut state = smoke_state();
        assert_eq!(state.model_rebuilds(), 1);
        let a = state.model_metrics();
        let b = state.model_metrics();
        assert_eq!(a, b);
        state.measure().unwrap();
        state.measure().unwrap();
        assert_eq!(state.model_metrics(), b);
        state.apply_churn(&join(3)).unwrap();
        state.model_metrics();
        assert_eq!(state.model_rebuilds(), 1);
    }

    #[test]
    fn cached_model_tracks_churn_bitwise() {
        let fresh_model = |state: &ServeState| {
            let topology = Topology::from_sites(
                state.pop.sites.clone(),
                state.gateways.clone(),
                state.radius_m,
            );
            NetworkModel::new(&state.config, &topology)
        };
        let mut state = smoke_state();
        let events = [
            ChurnKind::Join {
                class: "bursty".into(),
                count: 5,
            },
            ChurnKind::Leave { count: 3 },
            ChurnKind::Migrate {
                from: "bursty".into(),
                to: "steady".into(),
                count: 4,
            },
            ChurnKind::Leave { count: 2 },
            ChurnKind::Join {
                class: "steady".into(),
                count: 1,
            },
        ];
        for (i, kind) in events.into_iter().enumerate() {
            state
                .apply_churn(&ChurnEvent {
                    epoch: i as u32 + 1,
                    event: kind,
                })
                .unwrap();
            let fresh = fresh_model(&state);
            assert_eq!(
                *state.cached_model(),
                fresh,
                "cached model diverged from a from-scratch rebuild after event {i}"
            );
            let bits = |ee: &[f64]| ee.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(state.live.ee_all()),
                bits(&fresh.evaluate(state.alloc())),
                "live EE diverged from a from-scratch evaluation after event {i}"
            );
        }
        assert_eq!(state.model_rebuilds(), 1);
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let state = smoke_state();
        let mut wrong_schema = state.snapshot();
        wrong_schema.schema = "ef-lora-serve/v0".into();
        assert!(ServeState::restore(wrong_schema).is_err());
        let mut short_alloc = state.snapshot();
        short_alloc.alloc.pop();
        assert!(ServeState::restore(short_alloc).is_err());
    }

    #[test]
    fn crashed_mid_stream_write_leaves_the_old_snapshot_intact() {
        // Regression for the bare `std::fs::write` era: a crash mid-write
        // destroyed the only snapshot on disk. The atomic path stages the
        // new image in `<path>.tmp`, so dying at any point before the
        // rename leaves the old file byte-for-byte untouched.
        let dir = TempDir::new("serve-snap-atomic");
        let path = dir.path().join("snap.json");
        let mut state = smoke_state();
        state.snapshot_to_file(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        state.apply_churn(&join(4)).unwrap();
        let next = serde_json::to_string_pretty(&state.snapshot()).unwrap();
        // Simulate the crash: half of the next image reaches the staging
        // file and the process dies before the rename.
        std::fs::write(path.with_extension("tmp"), &next[..next.len() / 2]).unwrap();

        assert_eq!(std::fs::read(&path).unwrap(), good, "old snapshot survives");
        let restored = ServeState::restore_from_file(&path).unwrap();
        assert_eq!(restored.events_applied(), 0);
    }

    #[test]
    fn bit_flipped_snapshots_fail_with_a_typed_corrupt_error() {
        let dir = TempDir::new("serve-snap-bitflip");
        let path = dir.path().join("snap.json");
        smoke_state().snapshot_to_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the body (past the header line).
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let mid = header_end + (bytes.len() - header_end) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match ServeState::restore_from_file(&path) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum mismatch"), "got: {reason}");
            }
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
        // Truncating the body is caught by the length field even before
        // the checksum.
        smoke_state().snapshot_to_file(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 20]).unwrap();
        assert!(matches!(
            ServeState::restore_from_file(&path),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn legacy_headerless_snapshots_still_restore() {
        let dir = TempDir::new("serve-snap-legacy");
        let path = dir.path().join("snap.json");
        let state = smoke_state();
        // The pre-journal on-disk format: pretty JSON, no header line.
        let body = serde_json::to_string_pretty(&state.snapshot()).unwrap();
        std::fs::write(&path, format!("{body}\n")).unwrap();
        let restored = ServeState::restore_from_file(&path).unwrap();
        assert_eq!(restored.snapshot(), state.snapshot());
    }

    #[test]
    fn snapshot_files_round_trip_with_checksummed_headers() {
        let dir = TempDir::new("serve-snap-roundtrip");
        let path = dir.path().join("snap.json");
        let mut state = smoke_state();
        state.apply_churn(&join(2)).unwrap();
        state.snapshot_to_file(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(
            body.starts_with("{\"schema\":\"ef-lora-serve-snapshot/"),
            "checksummed files lead with the header line"
        );
        let restored = ServeState::restore_from_file(&path).unwrap();
        assert_eq!(restored.snapshot(), state.snapshot());
        assert_eq!(
            restored.recovery(),
            None,
            "plain restore stamps no recovery"
        );
    }
}
