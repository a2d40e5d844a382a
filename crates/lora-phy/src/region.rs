//! Regional parameters: channel counts, transmission-power sets and
//! duty-cycle caps.
//!
//! The paper evaluates on eight 125 kHz uplink channels from 902.3 MHz
//! (US915 sub-band 1) with the European-style power set 2..14 dBm; both the
//! US sub-band and the EU868 plan are provided. Per the paper, even in the
//! US a deployment selects only eight uplink channels so that every end
//! device can be heard by all surrounding gateways.

use serde::{Deserialize, Serialize};

use crate::power::TxPowerDbm;

/// A LoRaWAN operating region (simplified to what the paper exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// US 915 MHz band, sub-band 1: eight 125 kHz uplink channels starting
    /// at 902.3 MHz with 200 kHz spacing — the paper's evaluation setting.
    Us915Sub1,
    /// EU 868 MHz band: eight 125 kHz uplink channels (the three mandatory
    /// join channels plus five commonly provisioned ones).
    Eu868,
}

impl Region {
    /// Number of uplink channels (always 8 for the supported regions,
    /// matching constraint C₃ of paper Eq. 1).
    pub fn uplink_channel_count(self) -> usize {
        8
    }

    /// The allocatable transmission-power levels, lowest first.
    ///
    /// Both regions use the paper's 2..14 dBm set in 2 dB steps.
    pub fn tx_power_levels(self) -> Vec<TxPowerDbm> {
        TxPowerDbm::eu_levels()
    }

    /// The regulatory duty-cycle cap (fraction of time a device may occupy
    /// the channel). ETSI limits sub-GHz ISM uplinks to 1 % (paper
    /// Section III-A); the same 1 % is applied to the US simulation for
    /// parity with the paper's setup.
    pub fn duty_cycle_cap(self) -> f64 {
        0.01
    }
}

impl Default for Region {
    /// The paper's evaluation region.
    fn default() -> Self {
        Region::Us915Sub1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_levels_and_duty_cycle() {
        for region in [Region::Us915Sub1, Region::Eu868] {
            assert_eq!(region.tx_power_levels().len(), 7);
            assert_eq!(region.duty_cycle_cap(), 0.01);
        }
    }
}
