//! Single source of truth for the experiment binaries.
//!
//! Every experiment under `src/bin/` is a thin wrapper over a library
//! function; this registry names them all once, so the `run_all` driver
//! and CI consume the same list and a test can assert the registry and
//! the `src/bin/` directory never drift apart.

use crate::harness::Scale;

/// One experiment binary: its `src/bin/<name>.rs` stem and the library
/// entry point it wraps.
pub struct ExperimentBin {
    /// Binary name (the `src/bin/` file stem).
    pub name: &'static str,
    /// Runs the experiment at the given scale, discarding its result
    /// (results are archived as JSON under `target/experiments/`).
    pub run: fn(&Scale),
}

fn table1(_: &Scale) {
    crate::experiments::table1_sf_motivation::run();
}
fn table2(_: &Scale) {
    crate::experiments::table2_tp_motivation::run();
}
fn fig4(scale: &Scale) {
    let _ = crate::experiments::fig4_ee_per_device::run(scale);
}
fn fig5(scale: &Scale) {
    let _ = crate::experiments::fig5_ee_cdf::run(scale);
}
fn fig6(scale: &Scale) {
    let _ = crate::experiments::fig6_min_ee_vs_devices::run(scale);
}
fn fig7(scale: &Scale) {
    let _ = crate::experiments::fig7_min_ee_vs_gateways::run(scale);
}
fn fig8(scale: &Scale) {
    let _ = crate::experiments::fig8_network_lifetime::run(scale);
}
fn fig9(scale: &Scale) {
    let _ = crate::experiments::fig9_decomposition::run(scale);
}
fn fig10(scale: &Scale) {
    let _ = crate::experiments::fig10_convergence::run(scale);
}
fn model_validation(scale: &Scale) {
    let _ = crate::experiments::model_validation::run(scale);
}
fn ext_inter_sf(scale: &Scale) {
    let _ = crate::experiments::ext_inter_sf::run(scale);
}
fn ext_heterogeneous_rates(scale: &Scale) {
    let _ = crate::experiments::ext_heterogeneous_rates::run(scale);
}
fn ext_incremental(scale: &Scale) {
    let _ = crate::experiments::ext_incremental::run(scale);
}
fn ext_confirmed_traffic(scale: &Scale) {
    let _ = crate::experiments::ext_confirmed_traffic::run(scale);
}
fn ext_adr(scale: &Scale) {
    let _ = crate::experiments::ext_adr::run(scale);
}
fn resilience(scale: &Scale) {
    let _ = crate::experiments::resilience::run(scale);
}
fn ext_scenarios(scale: &Scale) {
    let _ = crate::experiments::ext_scenarios::run(scale);
}
fn ext_serve_soak(scale: &Scale) {
    let _ = crate::experiments::ext_serve_soak::run(scale);
}
fn ext_scale(scale: &Scale) {
    let _ = crate::experiments::ext_scale::run(scale);
}

/// Every experiment binary, in the order `run_all` executes them.
pub const EXPERIMENTS: &[ExperimentBin] = &[
    ExperimentBin {
        name: "table1_sf_motivation",
        run: table1,
    },
    ExperimentBin {
        name: "table2_tp_motivation",
        run: table2,
    },
    ExperimentBin {
        name: "fig4_ee_per_device",
        run: fig4,
    },
    ExperimentBin {
        name: "fig5_ee_cdf",
        run: fig5,
    },
    ExperimentBin {
        name: "fig6_min_ee_vs_devices",
        run: fig6,
    },
    ExperimentBin {
        name: "fig7_min_ee_vs_gateways",
        run: fig7,
    },
    ExperimentBin {
        name: "fig8_network_lifetime",
        run: fig8,
    },
    ExperimentBin {
        name: "fig9_decomposition",
        run: fig9,
    },
    ExperimentBin {
        name: "fig10_convergence",
        run: fig10,
    },
    ExperimentBin {
        name: "model_validation",
        run: model_validation,
    },
    ExperimentBin {
        name: "ext_inter_sf",
        run: ext_inter_sf,
    },
    ExperimentBin {
        name: "ext_heterogeneous_rates",
        run: ext_heterogeneous_rates,
    },
    ExperimentBin {
        name: "ext_incremental",
        run: ext_incremental,
    },
    ExperimentBin {
        name: "ext_confirmed_traffic",
        run: ext_confirmed_traffic,
    },
    ExperimentBin {
        name: "ext_adr",
        run: ext_adr,
    },
    ExperimentBin {
        name: "resilience",
        run: resilience,
    },
    ExperimentBin {
        name: "ext_scenarios",
        run: ext_scenarios,
    },
    ExperimentBin {
        name: "ext_serve_soak",
        run: ext_serve_soak,
    },
    ExperimentBin {
        name: "ext_scale",
        run: ext_scale,
    },
];

/// Binaries under `src/bin/` that drive experiments rather than being
/// one: the sequential runner.
pub const DRIVER_BINS: &[&str] = &["run_all"];

/// Looks an experiment up by binary name.
pub fn find(name: &str) -> Option<&'static ExperimentBin> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_findable() {
        for e in EXPERIMENTS {
            assert!(find(e.name).is_some());
            assert!(!DRIVER_BINS.contains(&e.name), "{} is both kinds", e.name);
        }
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry entries");
    }
}
