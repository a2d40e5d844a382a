//! Error type for PHY-layer computations.

use std::error::Error;
use std::fmt;

/// Errors returned by the PHY-layer model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhyError {
    /// A payload longer than the LoRa maximum (255 bytes of PHY payload)
    /// was requested.
    PayloadTooLarge {
        /// The offending payload length in bytes.
        len: usize,
        /// The maximum accepted length in bytes.
        max: usize,
    },
    /// A transmission power outside the configured regional range.
    TxPowerOutOfRange {
        /// The offending power in dBm.
        dbm: f64,
        /// Lowest permitted power in dBm.
        min: f64,
        /// Highest permitted power in dBm.
        max: f64,
    },
    /// A spreading factor value outside 7..=12.
    InvalidSpreadingFactor(u8),
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds maximum of {max} bytes")
            }
            PhyError::TxPowerOutOfRange { dbm, min, max } => {
                write!(
                    f,
                    "transmission power {dbm} dBm outside permitted [{min}, {max}] dBm"
                )
            }
            PhyError::InvalidSpreadingFactor(v) => {
                write!(f, "spreading factor {v} outside 7..=12")
            }
        }
    }
}

impl Error for PhyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = PhyError::InvalidSpreadingFactor(42);
        let s = e.to_string();
        assert!(s.starts_with("spreading factor"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhyError>();
    }
}
