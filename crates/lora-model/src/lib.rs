//! Analytical model of multi-gateway LoRa networks (paper Section III).
//!
//! The EF-LoRa allocator cannot afford to simulate every candidate
//! allocation; instead it evaluates a closed-form model of each device's
//! energy efficiency:
//!
//! * [`contention`] — the ALOHA overlap probability `h_i = 1 − e^{−α·m}`
//!   over the `N_{s,c}` devices sharing a (SF, channel) group
//!   (paper Eq. 14–15);
//! * [`capacity`] — the probability `θ_{i,k}` that gateway `k` has a free
//!   demodulator path (paper Eq. 12), computed exactly as a
//!   Poisson–binomial tail and approximately as a Poisson tail;
//! * [`interference`] — mean-field cumulative interference and the paper's
//!   Poisson-point-process Laplace-transform reduction (Eq. 19–20);
//! * [`pdr`] — the Rayleigh closed-form packet delivery ratio per gateway
//!   (Eq. 10) and the multi-gateway reception ratio (Eq. 5/13);
//! * [`model`] — [`model::NetworkModel`] binding a topology + configuration,
//!   and [`model::ModelState`], the incrementally updatable evaluation the
//!   allocators scan candidates with;
//! * [`scan`] — the per-device candidate scan of Algorithm 1, one walk
//!   with exact skip rules that every allocator drives with its own
//!   acceptance [`scan::Rule`].
//!
//! # Example
//!
//! ```
//! use lora_model::model::NetworkModel;
//! use lora_phy::TxConfig;
//! use lora_sim::{SimConfig, Topology};
//!
//! let config = SimConfig::default();
//! let topology = Topology::disc(30, 2, 3_000.0, &config, 1);
//! let model = NetworkModel::new(&config, &topology);
//! let alloc = vec![TxConfig::default(); 30];
//! let ee = model.evaluate(&alloc);
//! assert_eq!(ee.len(), 30);
//! assert!(ee.iter().all(|v| *v >= 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod contention;
pub mod error;
pub mod interference;
pub mod model;
pub mod pdr;
pub mod scan;
pub mod validation;

pub use error::ModelError;
pub use model::{Ambient, ModelState, NetworkModel};
pub use pdr::PdrForm;
