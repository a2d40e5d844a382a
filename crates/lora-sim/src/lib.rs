//! Deterministic discrete-event simulator for multi-gateway LoRa networks.
//!
//! This crate is the reproduction's substitute for the NS-3 LoRaWAN module
//! the paper evaluates on (Section IV): a packet-level, SINR-based,
//! seeded-RNG simulator of uplink LoRaWAN traffic.
//!
//! The modelled pipeline, per transmission and per gateway:
//!
//! 1. the device transmits on its allocated (SF, TP, channel) following an
//!    unslotted-ALOHA periodic schedule with random phase;
//! 2. each gateway samples an independent Rayleigh fading gain and receives
//!    the packet at `P_tx − PL(d) + fading` dBm;
//! 3. the gateway locks one of its eight SX1301 demodulator paths if the
//!    received power clears the SF's sensitivity and a path is free
//!    (paper Eq. 6);
//! 4. at the end of the reception the SINR — signal over noise plus all
//!    co-SF/co-channel overlapping transmissions (paper's collision rule) —
//!    must clear the SF's demodulation threshold (paper Eq. 7);
//! 5. the network server de-duplicates copies received via multiple
//!    gateways; a transmission is delivered if at least one copy survives
//!    (paper Eq. 5).
//!
//! Energy is accounted per device with the Casals et al. model (TX burst +
//! fixed overhead + sleep), and per-device lifetime follows from the
//! battery budget; the network lifetime uses the paper's 10 %-dead
//! definition.
//!
//! # Example
//!
//! ```
//! use lora_sim::{SimConfig, Simulation, Topology};
//! use lora_phy::TxConfig;
//!
//! let config = SimConfig::builder()
//!     .seed(7)
//!     .duration_s(3_600.0)
//!     .report_interval_s(600.0)
//!     .build();
//! let topology = Topology::disc(50, 1, 2_000.0, &config, 7);
//! // Everyone on SF7/14 dBm/channel 0 — a deliberately naive allocation.
//! let alloc = vec![TxConfig::default(); 50];
//! let report = Simulation::new(config, topology, alloc).unwrap().run();
//! assert_eq!(report.devices.len(), 50);
//! assert!(report.min_energy_efficiency_bits_per_mj() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod event;
pub mod faults;
mod medium;
pub mod metrics;
pub mod report;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

pub use config::{ConfirmedTraffic, GatewayOutage, SimConfig, SimConfigBuilder, Traffic};
pub use error::SimError;
pub use faults::{BackhaulLink, FaultConfig, GatewayChurn, JamBurst, JammerProcess};
pub use report::{DeviceStats, GatewayStats, SimReport};
pub use sim::Simulation;
pub use topology::{
    attenuation_budget_from_env, attenuation_matrix, attenuation_row, try_attenuation_matrix,
    AttenuationMatrix, DeviceSite, Position, Topology, DEFAULT_ATTENUATION_BUDGET_BYTES,
};
