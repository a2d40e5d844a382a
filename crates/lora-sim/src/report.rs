//! Simulation results.

use serde::{Deserialize, Serialize};

use crate::metrics;

/// Per-device statistics from one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Number of transmission attempts.
    pub attempts: u32,
    /// Number of transmissions delivered (received by ≥ 1 gateway).
    pub delivered: u32,
    /// Total electrical energy consumed, joules (TX + overhead + sleep).
    pub energy_j: f64,
    /// Energy efficiency in bits per millijoule (paper Eq. 2):
    /// delivered payload bits / consumed energy.
    pub ee_bits_per_mj: f64,
    /// Projected battery lifetime in seconds at this consumption rate,
    /// `None` for a device that never transmitted.
    pub lifetime_s: Option<f64>,
}

impl DeviceStats {
    /// The measured packet reception ratio.
    pub fn prr(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            f64::from(self.delivered) / f64::from(self.attempts)
        }
    }
}

/// Per-gateway statistics from one simulation run.
///
/// Every transmission attempt meets exactly one of these eight fates at
/// every gateway, so the counters sum to the network-wide attempt count —
/// the reception-conservation invariant the conformance engine checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayStats {
    /// Copies successfully decoded *and* forwarded to the network server.
    pub decoded: u64,
    /// Receptions lost because all demodulator paths were busy (the
    /// paper's Eq. 6 capacity limit binding).
    pub demod_refused: u64,
    /// Receptions that locked a path but failed the SINR check (co-SF
    /// collisions).
    pub sinr_failures: u64,
    /// Transmissions whose received power was below this gateway's
    /// sensitivity (out of range / deep fade).
    pub below_sensitivity: u64,
    /// Receptions dropped because the gateway was in an injected outage.
    pub outage_drops: u64,
    /// Receptions dropped because the half-duplex gateway was transmitting
    /// a downlink acknowledgement (confirmed traffic only).
    pub half_duplex_drops: u64,
    /// Receptions that failed the SINR check only because of a jammer
    /// burst: with the jam power removed the copy would have decoded.
    /// Disjoint from [`GatewayStats::sinr_failures`].
    pub jammed_drops: u64,
    /// PHY-decoded copies dropped on the lossy backhaul before reaching
    /// the network server. Disjoint from [`GatewayStats::decoded`], so a
    /// backhaul loss never double-counts against any PHY-level drop.
    pub backhaul_drops: u64,
}

// Hand-written serde impls (the derive would serialise every field): the
// fault-era counters are omitted when zero and default to zero when
// missing, so fault-free reports stay byte-identical to the pre-fault
// engine's JSON and old reports still parse.
impl Serialize for GatewayStats {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("decoded".to_string(), self.decoded.to_value()),
            ("demod_refused".to_string(), self.demod_refused.to_value()),
            ("sinr_failures".to_string(), self.sinr_failures.to_value()),
            (
                "below_sensitivity".to_string(),
                self.below_sensitivity.to_value(),
            ),
            ("outage_drops".to_string(), self.outage_drops.to_value()),
            (
                "half_duplex_drops".to_string(),
                self.half_duplex_drops.to_value(),
            ),
        ];
        if self.jammed_drops != 0 {
            obj.push(("jammed_drops".to_string(), self.jammed_drops.to_value()));
        }
        if self.backhaul_drops != 0 {
            obj.push(("backhaul_drops".to_string(), self.backhaul_drops.to_value()));
        }
        serde::Value::Object(obj)
    }
}

impl Deserialize for GatewayStats {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected object for GatewayStats, got {}",
                value.kind()
            ))
        })?;
        let required = |name: &str| -> Result<u64, serde::Error> {
            match obj.iter().find(|(k, _)| k.as_str() == name) {
                Some((_, v)) => Deserialize::from_value(v)
                    .map_err(|e: serde::Error| e.contextualize(&format!("GatewayStats.{name}"))),
                None => Err(serde::Error::custom(format!(
                    "missing field `GatewayStats.{name}`"
                ))),
            }
        };
        let optional = |name: &str| -> Result<u64, serde::Error> {
            match obj.iter().find(|(k, _)| k.as_str() == name) {
                Some((_, v)) => Deserialize::from_value(v)
                    .map_err(|e: serde::Error| e.contextualize(&format!("GatewayStats.{name}"))),
                None => Ok(0),
            }
        };
        Ok(GatewayStats {
            decoded: required("decoded")?,
            demod_refused: required("demod_refused")?,
            sinr_failures: required("sinr_failures")?,
            below_sensitivity: required("below_sensitivity")?,
            outage_drops: required("outage_drops")?,
            half_duplex_drops: required("half_duplex_drops")?,
            jammed_drops: optional("jammed_drops")?,
            backhaul_drops: optional("backhaul_drops")?,
        })
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-device statistics, indexed like the topology's device list.
    pub devices: Vec<DeviceStats>,
    /// Per-gateway statistics.
    pub gateways: Vec<GatewayStats>,
    /// Unique frames delivered network-wide.
    pub frames_delivered: u64,
    /// Redundant copies discarded by de-duplication.
    pub duplicate_copies: u64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
}

impl SimReport {
    /// Energy efficiency of every device, bits per millijoule.
    pub fn ee_values(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.ee_bits_per_mj).collect()
    }

    /// The paper's fairness metric: the minimum energy efficiency across
    /// devices, bits per millijoule.
    pub fn min_energy_efficiency_bits_per_mj(&self) -> f64 {
        metrics::minimum(&self.ee_values())
    }

    /// Mean energy efficiency, bits per millijoule.
    pub fn mean_energy_efficiency_bits_per_mj(&self) -> f64 {
        metrics::mean(&self.ee_values())
    }

    /// Jain's fairness index of the energy efficiencies.
    pub fn jain_fairness(&self) -> f64 {
        metrics::jain_index(&self.ee_values())
    }

    /// Mean packet reception ratio across devices.
    pub fn mean_prr(&self) -> f64 {
        metrics::mean(
            &self
                .devices
                .iter()
                .map(DeviceStats::prr)
                .collect::<Vec<_>>(),
        )
    }

    /// Network lifetime per the paper's Section IV definition: the time at
    /// which `dead_fraction` (e.g. 0.10) of the devices have exhausted
    /// their batteries — the `dead_fraction`-quantile of device lifetimes.
    /// Devices that never transmitted are excluded.
    pub fn network_lifetime_s(&self, dead_fraction: f64) -> f64 {
        let lifetimes: Vec<f64> = self.devices.iter().filter_map(|d| d.lifetime_s).collect();
        metrics::percentile(&lifetimes, dead_fraction * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            devices: vec![
                DeviceStats {
                    attempts: 10,
                    delivered: 9,
                    energy_j: 1.0,
                    ee_bits_per_mj: 1.5,
                    lifetime_s: Some(1_000.0),
                },
                DeviceStats {
                    attempts: 10,
                    delivered: 5,
                    energy_j: 2.0,
                    ee_bits_per_mj: 0.5,
                    lifetime_s: Some(500.0),
                },
                DeviceStats {
                    attempts: 10,
                    delivered: 8,
                    energy_j: 1.5,
                    ee_bits_per_mj: 1.0,
                    lifetime_s: Some(750.0),
                },
            ],
            gateways: vec![GatewayStats::default()],
            frames_delivered: 22,
            duplicate_copies: 3,
            duration_s: 6_000.0,
        }
    }

    #[test]
    fn min_and_mean_ee() {
        let r = report();
        assert_eq!(r.min_energy_efficiency_bits_per_mj(), 0.5);
        assert!((r.mean_energy_efficiency_bits_per_mj() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prr_per_device_and_mean() {
        let r = report();
        assert!((r.devices[0].prr() - 0.9).abs() < 1e-12);
        assert!((r.mean_prr() - (0.9 + 0.5 + 0.8) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_attempts_prr_is_zero() {
        let d = DeviceStats {
            attempts: 0,
            delivered: 0,
            energy_j: 0.0,
            ee_bits_per_mj: 0.0,
            lifetime_s: None,
        };
        assert_eq!(d.prr(), 0.0);
    }

    #[test]
    fn network_lifetime_is_low_quantile() {
        let r = report();
        // 10 % quantile of {500, 750, 1000} by interpolation: 550.
        assert!((r.network_lifetime_s(0.10) - 550.0).abs() < 1e-9);
        // First-death definition (fraction → 0).
        assert_eq!(r.network_lifetime_s(0.0), 500.0);
    }
}
