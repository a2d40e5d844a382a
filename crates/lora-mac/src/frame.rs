//! LoRaWAN uplink frame size.
//!
//! An unconfirmed data uplink (LoRaWAN 1.0.x) wraps the application payload
//! in 13 bytes of MAC overhead:
//!
//! ```text
//! | MHDR | DevAddr | FCtrl | FCnt | FPort | FRMPayload | MIC |
//! |  1   |    4    |   1   |  2   |   1   |     N      |  4  |
//! ```
//!
//! This is how the paper's evaluation turns an 8-byte application payload
//! into a 21-byte PHY payload (Section IV).

/// Bytes of MAC overhead around the application payload.
pub const MAC_OVERHEAD: usize = 13;

/// The largest application payload whose frame still fits a LoRa PHY
/// payload: 255 − [`MAC_OVERHEAD`] = 242 bytes.
pub const MAX_APP_PAYLOAD: usize = 242;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_app_payload_fills_the_largest_phy_payload() {
        assert_eq!(
            MAX_APP_PAYLOAD + MAC_OVERHEAD,
            lora_phy::toa::MAX_PHY_PAYLOAD
        );
    }
}
