//! EF-LoRa: energy-fairness resource allocation for multi-gateway LoRa
//! networks.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Towards Energy-Fairness in LoRa Networks*, ICDCS 2019): given a
//! deployment of end devices and gateways, jointly allocate every device's
//! **spreading factor**, **transmission power** and **channel** to maximise
//! the *minimum* energy efficiency across devices (max-min fairness,
//! paper Eq. 1).
//!
//! * [`greedy::EfLora`] — the paper's Algorithm 1: density-first iterative
//!   per-device improvement with a `δ` convergence threshold, driven by the
//!   incremental [`lora_model::ModelState`];
//! * [`baselines::LegacyLora`] — smallest feasible SF, maximum power
//!   (the NS-3 module default, paper reference \[13\]);
//! * [`baselines::RsLora`] — collision-fairness SF shares
//!   `p_s ∝ s/2^s` (paper Eq. 22, reference \[6\]);
//! * [`baselines::EfLoraFixedTp`] — the paper's Fig. 9 ablation: EF-LoRa
//!   with power control disabled (every device at 14 dBm);
//! * [`incremental::IncrementalAllocator`] — the Section III-E future-work
//!   extension: bounded re-allocation on device additions/removals;
//! * [`resilience`] — degradation detection and online recovery under
//!   gateway/channel faults: [`resilience::ResilienceController`] plus the
//!   masked-repair loop of [`resilience::run_faulted`];
//! * [`spatial::SpatialEfLora`] — the cell-sharded scale-out path:
//!   per-cell EF-LoRa solves against frozen-ring + far-field ambient
//!   pricing (paper Eq. 17–20), for populations past the dense model's
//!   reach;
//! * [`fairness`], [`lifetime`] — the evaluation metrics.
//!
//! # Quick start
//!
//! ```
//! use ef_lora::{AllocationContext, EfLora, LegacyLora, Strategy};
//! use lora_model::NetworkModel;
//! use lora_sim::{SimConfig, Topology};
//!
//! # fn main() -> Result<(), ef_lora::AllocError> {
//! let config = SimConfig::default();
//! let topology = Topology::disc(60, 2, 4_000.0, &config, 42);
//! let model = NetworkModel::new(&config, &topology);
//! let ctx = AllocationContext::new(&config, &topology, &model);
//!
//! let fair = EfLora::default().allocate(&ctx)?;
//! let naive = LegacyLora::default().allocate(&ctx)?;
//!
//! let min_fair = ef_lora::fairness::min_ee(&model.evaluate(fair.as_slice()));
//! let min_naive = ef_lora::fairness::min_ee(&model.evaluate(naive.as_slice()));
//! assert!(min_fair >= min_naive);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baselines;
pub mod context;
pub mod density;
pub mod error;
pub mod exhaustive;
pub mod fairness;
pub mod greedy;
pub mod incremental;
pub mod lifetime;
pub mod placement;
pub mod resilience;
pub mod spatial;
pub mod strategy;

pub use allocation::Allocation;
pub use baselines::{AdrLora, EfLoraFixedTp, LegacyLora, RsLora};
pub use context::{candidate_grid, AllocationContext};
pub use error::AllocError;
pub use exhaustive::ExhaustiveSearch;
pub use greedy::{DeviceOrdering, EfLora, GreedyReport};
pub use incremental::{seed_newcomers, IncrementalAllocator, IncrementalOutcome};
pub use spatial::{SpatialEfLora, SpatialReport};

pub use resilience::{
    reallocate_masked, run_faulted, Decision, EpochReport, RecoveryMode, ResilienceConfig,
    ResilienceController, ResilienceRun,
};
pub use strategy::Strategy;
