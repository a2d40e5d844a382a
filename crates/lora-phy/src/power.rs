//! Transmission power and the radiated-vs-consumed power relationship.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dbm_to_mw;
use crate::error::PhyError;

/// A transmission power in dBm.
///
/// The paper's evaluation uses the European-style set 2, 4, …, 14 dBm
/// (Section III-A). The newtype keeps dBm values from being confused with
/// dB gains or milliwatt quantities (C-NEWTYPE).
///
/// ```
/// use lora_phy::TxPowerDbm;
/// let p = TxPowerDbm::new(14.0);
/// assert!((p.milliwatts() - 25.12).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct TxPowerDbm(f64);

impl TxPowerDbm {
    /// The highest power of the paper's allocation set (also the EU ERP cap).
    pub const MAX_EU: TxPowerDbm = TxPowerDbm(14.0);

    /// Creates a transmission power from a dBm value.
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is not finite.
    pub fn new(dbm: f64) -> Self {
        assert!(dbm.is_finite(), "transmission power must be finite");
        TxPowerDbm(dbm)
    }

    /// Creates a transmission power, validating it against a permitted range.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::TxPowerOutOfRange`] if `dbm` lies outside
    /// `[min, max]`.
    pub fn checked(dbm: f64, min: f64, max: f64) -> Result<Self, PhyError> {
        if !dbm.is_finite() || dbm < min || dbm > max {
            return Err(PhyError::TxPowerOutOfRange { dbm, min, max });
        }
        Ok(TxPowerDbm(dbm))
    }

    /// The power in dBm.
    #[inline]
    pub fn dbm(self) -> f64 {
        self.0
    }

    /// The radiated power in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        dbm_to_mw(self.0)
    }

    /// The radiated power in watts.
    #[inline]
    pub fn watts(self) -> f64 {
        self.milliwatts() / 1000.0
    }

    /// The paper's allocation set: 2, 4, …, 14 dBm (7 levels, 2 dB steps).
    pub fn eu_levels() -> Vec<TxPowerDbm> {
        (1..=7).map(|i| TxPowerDbm(f64::from(i) * 2.0)).collect()
    }
}

impl fmt::Display for TxPowerDbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dBm", self.0)
    }
}

impl From<TxPowerDbm> for f64 {
    fn from(p: TxPowerDbm) -> f64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eu_levels_are_the_papers_seven() {
        let levels = TxPowerDbm::eu_levels();
        assert_eq!(levels.len(), 7);
        assert_eq!(levels[0].dbm(), 2.0);
        assert_eq!(levels[6], TxPowerDbm::MAX_EU);
        for w in levels.windows(2) {
            assert!((w[1].dbm() - w[0].dbm() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn checked_rejects_out_of_range() {
        assert!(TxPowerDbm::checked(16.0, 2.0, 14.0).is_err());
        assert!(TxPowerDbm::checked(0.0, 2.0, 14.0).is_err());
        assert!(TxPowerDbm::checked(f64::NAN, 2.0, 14.0).is_err());
        assert!(TxPowerDbm::checked(8.0, 2.0, 14.0).is_ok());
    }

    #[test]
    fn two_dbm_steps_are_1_58x_in_mw() {
        let a = TxPowerDbm::new(2.0).milliwatts();
        let b = TxPowerDbm::new(4.0).milliwatts();
        assert!((b / a - 10f64.powf(0.2)).abs() < 1e-12);
    }
}
