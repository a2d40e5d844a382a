//! Channel bandwidths.

use std::fmt;

use serde::{Deserialize, Serialize};

/// LoRa channel bandwidth.
///
/// The paper (and LoRaWAN regional parameters for sub-GHz uplinks) fixes the
/// uplink bandwidth to 125 kHz; 250 and 500 kHz are provided for
/// completeness and downlink modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Bandwidth {
    /// 125 kHz — the standard uplink bandwidth.
    #[default]
    Bw125,
    /// 250 kHz.
    Bw250,
    /// 500 kHz — used for downlink channels in US915.
    Bw500,
}

impl Bandwidth {
    /// The bandwidth in Hz.
    ///
    /// ```
    /// use lora_phy::Bandwidth;
    /// assert_eq!(Bandwidth::Bw125.hz(), 125_000.0);
    /// ```
    #[inline]
    pub fn hz(self) -> f64 {
        match self {
            Bandwidth::Bw125 => 125_000.0,
            Bandwidth::Bw250 => 250_000.0,
            Bandwidth::Bw500 => 500_000.0,
        }
    }

    /// The bandwidth in kHz.
    #[inline]
    pub fn khz(self) -> f64 {
        self.hz() / 1000.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}kHz", self.khz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_values() {
        assert_eq!(Bandwidth::Bw125.hz(), 125_000.0);
        assert_eq!(Bandwidth::Bw250.hz(), 250_000.0);
        assert_eq!(Bandwidth::Bw500.hz(), 500_000.0);
    }
}
