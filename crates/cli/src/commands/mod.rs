//! The `ef-lora-plan` subcommands.

pub mod allocate;
pub mod compare;
pub mod faults;
pub mod generate;
pub mod grow;
pub mod scenario;
pub mod simulate;
pub mod validate;

pub use ef_lora::strategy::strategy_by_name;
use lora_sim::{SimConfig, Traffic};

use crate::args::Options;

/// Builds the simulation configuration from common flags: `--duration`,
/// `--seed`, `--interval` and `--duty` (which switches to the
/// duty-cycle-target traffic model).
pub fn config_from(opts: &Options) -> Result<SimConfig, String> {
    let mut config = SimConfig::default();
    config.duration_s = opts.parse_or("duration", config.duration_s)?;
    config.seed = opts.parse_or("seed", config.seed)?;
    config.report_interval_s = opts.parse_or("interval", config.report_interval_s)?;
    config.p_los = opts.parse_or("p-los", config.p_los)?;
    if let Some(duty) = opts.optional("duty") {
        let duty: f64 = duty
            .parse()
            .map_err(|_| "flag --duty has an invalid value".to_string())?;
        config.traffic = Traffic::DutyCycleTarget { duty };
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_flags_apply() {
        let opts = Options::parse(&[
            "--duration".into(),
            "1200".into(),
            "--duty".into(),
            "0.01".into(),
        ])
        .unwrap();
        let config = config_from(&opts).unwrap();
        assert_eq!(config.duration_s, 1_200.0);
        assert_eq!(config.traffic, Traffic::DutyCycleTarget { duty: 0.01 });
    }
}
