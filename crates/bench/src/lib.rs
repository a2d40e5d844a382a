//! Experiment harness for the EF-LoRa reproduction.
//!
//! One module per paper table/figure (see `experiments`), shared pipeline
//! plumbing in [`harness`], the stylised Section-II motivation engine in
//! [`motivation`], table/JSON output in [`output`], and in [`perf`] the
//! regression gate that the `ext_scale` and `ext_serve_soak` timings
//! share.
//!
//! Every experiment is exposed both as a library function (so `run_all`
//! and the integration tests can drive them) and as a binary under
//! `src/bin/`. Results print as aligned tables and are archived as JSON
//! under `target/experiments/`.
//!
//! Scale is controlled by the `EF_LORA_SCALE` environment variable:
//! `smoke` (seconds, CI-sized), `small` (default, minutes, paper shapes at
//! reduced population) or `paper` (the full 3000–5000-device deployments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod motivation;
pub mod output;
pub mod perf;
pub mod registry;

/// The per-table/figure experiment implementations.
pub mod experiments {
    pub mod ext_adr;
    pub mod ext_confirmed_traffic;
    pub mod ext_heterogeneous_rates;
    pub mod ext_incremental;
    pub mod ext_inter_sf;
    pub mod ext_scale;
    pub mod ext_scenarios;
    pub mod ext_serve_soak;
    pub mod fig10_convergence;
    pub mod fig4_ee_per_device;
    pub mod fig5_ee_cdf;
    pub mod fig6_min_ee_vs_devices;
    pub mod fig7_min_ee_vs_gateways;
    pub mod fig8_network_lifetime;
    pub mod fig9_decomposition;
    pub mod model_validation;
    pub mod resilience;
    pub mod table1_sf_motivation;
    pub mod table2_tp_motivation;
}

pub use harness::{Scale, ScaleKind};
