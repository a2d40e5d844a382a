//! Class-A receive-window parameters.
//!
//! After every uplink a class-A device opens two short downlink windows:
//! RX1 `RECEIVE_DELAY1` (default 1 s) after the end of the uplink, on the
//! uplink channel at a data rate offset from the uplink's; RX2 one second
//! later on a fixed channel/data rate. Acknowledgements for the confirmed
//! traffic modelled by `lora-sim` arrive in these windows; this module
//! holds their parameters and the energy cost of keeping the receiver
//! open.

use serde::{Deserialize, Serialize};

/// Class-A receive-window parameters (LoRaWAN 1.0.x defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAParams {
    /// Delay from end of uplink to RX1 opening, seconds (default 1.0).
    pub receive_delay1_s: f64,
    /// Delay from end of uplink to RX2 opening, seconds (default 2.0 —
    /// always `receive_delay1_s + 1`).
    pub receive_delay2_s: f64,
    /// Minimum time the receiver stays open per window, seconds (enough
    /// for the downlink preamble; ~30 ms at SF9/125 kHz).
    pub window_open_s: f64,
    /// Receiver supply power while listening, watts (SX1276 RX ≈ 12 mA at
    /// 3.3 V).
    pub rx_power_w: f64,
}

impl Default for ClassAParams {
    fn default() -> Self {
        ClassAParams {
            receive_delay1_s: 1.0,
            receive_delay2_s: 2.0,
            window_open_s: 0.030,
            rx_power_w: 12e-3 * 3.3,
        }
    }
}

impl ClassAParams {
    /// Energy spent opening both windows once (no downlink received), in
    /// joules — the per-uplink listening overhead a confirmed-traffic
    /// deployment pays on top of TX energy.
    pub fn listening_energy_j(&self) -> f64 {
        2.0 * self.window_open_s * self.rx_power_w
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MacError::InvalidReceiveWindows`] when delays are
    /// not ordered `0 < RX1 < RX2` or the window/power values are not
    /// positive.
    pub fn validate(&self) -> Result<(), crate::MacError> {
        let ordered = self.receive_delay1_s > 0.0
            && self.receive_delay2_s > self.receive_delay1_s
            && self.window_open_s > 0.0
            && self.rx_power_w > 0.0;
        if ordered {
            Ok(())
        } else {
            Err(crate::MacError::InvalidReceiveWindows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_windows_are_one_and_two_seconds() {
        let p = ClassAParams::default();
        assert_eq!(p.receive_delay1_s, 1.0);
        assert_eq!(p.receive_delay2_s, 2.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn listening_energy_is_small_but_positive() {
        let e = ClassAParams::default().listening_energy_j();
        // 2 × 30 ms × 39.6 mW ≈ 2.4 mJ.
        assert!((e - 2.376e-3).abs() < 1e-6, "{e}");
    }

    #[test]
    fn validation_rejects_inverted_delays() {
        let bad = ClassAParams {
            receive_delay1_s: 2.0,
            receive_delay2_s: 1.0,
            ..ClassAParams::default()
        };
        assert!(bad.validate().is_err());
        let zero = ClassAParams {
            window_open_s: 0.0,
            ..ClassAParams::default()
        };
        assert!(zero.validate().is_err());
    }
}
