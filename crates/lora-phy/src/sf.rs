//! Spreading factors and their PHY characteristics.
//!
//! A LoRa symbol is a chirp of `2^SF` chips that encodes `SF` bits. Larger
//! spreading factors trade data rate for processing gain: the symbol lasts
//! longer (`2^SF / BW`), the receiver can demodulate further below the noise
//! floor, and the communication range grows (paper Section III-A).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::channel::Bandwidth;
use crate::error::PhyError;
use crate::THERMAL_NOISE_DBM_HZ;

/// Default receiver noise figure in dB used throughout the paper's
/// evaluation; with `NF = 6` the sensitivity formula of Eq. (11) reproduces
/// paper Table IV exactly.
pub const DEFAULT_NOISE_FIGURE_DB: f64 = 6.0;

/// A LoRa spreading factor, SF7 through SF12.
///
/// The numeric value is the number of information bits carried per chirp.
///
/// ```
/// use lora_phy::SpreadingFactor;
/// let sf = SpreadingFactor::Sf9;
/// assert_eq!(sf.bits_per_symbol(), 9);
/// assert_eq!(sf.chips_per_symbol(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum SpreadingFactor {
    /// SF7 — highest data rate, shortest range.
    Sf7 = 7,
    /// SF8.
    Sf8 = 8,
    /// SF9.
    Sf9 = 9,
    /// SF10.
    Sf10 = 10,
    /// SF11.
    Sf11 = 11,
    /// SF12 — lowest data rate, longest range.
    Sf12 = 12,
}

impl SpreadingFactor {
    /// All spreading factors in increasing order, `[SF7, .., SF12]`.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// Number of available spreading factors.
    pub const COUNT: usize = 6;

    /// Creates a spreading factor from its numeric value.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidSpreadingFactor`] if `value` is outside
    /// `7..=12`.
    ///
    /// ```
    /// use lora_phy::SpreadingFactor;
    /// assert_eq!(SpreadingFactor::from_u8(10)?, SpreadingFactor::Sf10);
    /// assert!(SpreadingFactor::from_u8(6).is_err());
    /// # Ok::<(), lora_phy::PhyError>(())
    /// ```
    pub fn from_u8(value: u8) -> Result<Self, PhyError> {
        match value {
            7 => Ok(SpreadingFactor::Sf7),
            8 => Ok(SpreadingFactor::Sf8),
            9 => Ok(SpreadingFactor::Sf9),
            10 => Ok(SpreadingFactor::Sf10),
            11 => Ok(SpreadingFactor::Sf11),
            12 => Ok(SpreadingFactor::Sf12),
            other => Err(PhyError::InvalidSpreadingFactor(other)),
        }
    }

    /// The number of information bits per chirp symbol (the SF itself).
    #[inline]
    pub fn bits_per_symbol(self) -> u8 {
        self as u8
    }

    /// The number of chips in one symbol, `2^SF`.
    #[inline]
    pub fn chips_per_symbol(self) -> u32 {
        1u32 << (self as u8)
    }

    /// Duration of one symbol in seconds, `2^SF / BW` (paper Section III-A).
    ///
    /// ```
    /// use lora_phy::{Bandwidth, SpreadingFactor};
    /// let t = SpreadingFactor::Sf7.symbol_time_s(Bandwidth::Bw125);
    /// assert!((t - 1.024e-3).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn symbol_time_s(self, bw: Bandwidth) -> f64 {
        f64::from(self.chips_per_symbol()) / bw.hz()
    }

    /// Minimum SNR in dB at which a gateway demodulates this SF
    /// (paper Table IV).
    ///
    /// ```
    /// use lora_phy::SpreadingFactor;
    /// assert_eq!(SpreadingFactor::Sf7.snr_threshold_db(), -6.0);
    /// assert_eq!(SpreadingFactor::Sf12.snr_threshold_db(), -20.0);
    /// ```
    #[inline]
    pub fn snr_threshold_db(self) -> f64 {
        match self {
            SpreadingFactor::Sf7 => -6.0,
            SpreadingFactor::Sf8 => -9.0,
            SpreadingFactor::Sf9 => -12.0,
            SpreadingFactor::Sf10 => -15.0,
            SpreadingFactor::Sf11 => -17.5,
            SpreadingFactor::Sf12 => -20.0,
        }
    }

    /// Receiver sensitivity in dBm for the given bandwidth and noise figure
    /// (paper Eq. 11): `-174 + 10·log10(BW) + NF + th_SF`.
    ///
    /// With `BW = 125 kHz` and `NF = 6 dB` this reproduces paper Table IV:
    ///
    /// ```
    /// use lora_phy::{Bandwidth, SpreadingFactor};
    /// use lora_phy::sf::DEFAULT_NOISE_FIGURE_DB;
    /// let s = SpreadingFactor::Sf12.sensitivity_dbm(Bandwidth::Bw125, DEFAULT_NOISE_FIGURE_DB);
    /// assert!((s - -137.0).abs() < 0.05);
    /// ```
    #[inline]
    pub fn sensitivity_dbm(self, bw: Bandwidth, noise_figure_db: f64) -> f64 {
        THERMAL_NOISE_DBM_HZ + 10.0 * bw.hz().log10() + noise_figure_db + self.snr_threshold_db()
    }

    /// The next larger spreading factor, or `None` for SF12.
    #[inline]
    pub fn slower(self) -> Option<SpreadingFactor> {
        SpreadingFactor::from_u8(self as u8 + 1).ok()
    }

    /// The next smaller spreading factor, or `None` for SF7.
    #[inline]
    pub fn faster(self) -> Option<SpreadingFactor> {
        match self {
            SpreadingFactor::Sf7 => None,
            other => SpreadingFactor::from_u8(other as u8 - 1).ok(),
        }
    }

    /// Zero-based index of this SF (SF7 → 0 .. SF12 → 5), convenient for
    /// array-backed tables.
    #[inline]
    pub fn index(self) -> usize {
        (self as u8 - 7) as usize
    }
}

impl Default for SpreadingFactor {
    /// SF7, the "best case" factor that allocation strategies start from.
    fn default() -> Self {
        SpreadingFactor::Sf7
    }
}

impl fmt::Display for SpreadingFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF{}", *self as u8)
    }
}

impl From<SpreadingFactor> for u8 {
    fn from(sf: SpreadingFactor) -> u8 {
        sf as u8
    }
}

impl TryFrom<u8> for SpreadingFactor {
    type Error = PhyError;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        SpreadingFactor::from_u8(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_sensitivities_at_bw125_nf6() {
        let expected = [-123.0, -126.0, -129.0, -132.0, -134.5, -137.0];
        for (sf, want) in SpreadingFactor::ALL.iter().zip(expected) {
            let got = sf.sensitivity_dbm(Bandwidth::Bw125, DEFAULT_NOISE_FIGURE_DB);
            // 10*log10(125000) = 50.969 so the table is rounded to .0/.5;
            // allow the rounding slack.
            assert!((got - want).abs() < 0.05, "{sf}: got {got}, want {want}");
        }
    }

    #[test]
    fn symbol_time_doubles_per_sf_step() {
        for sf in SpreadingFactor::ALL.iter().take(5) {
            let next = sf.slower().unwrap();
            let ratio = next.symbol_time_s(Bandwidth::Bw125) / sf.symbol_time_s(Bandwidth::Bw125);
            assert!((ratio - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_u8() {
        for sf in SpreadingFactor::ALL {
            assert_eq!(SpreadingFactor::from_u8(sf.into()).unwrap(), sf);
        }
    }

    #[test]
    fn faster_slower_are_inverses() {
        for sf in SpreadingFactor::ALL.iter().skip(1) {
            assert_eq!(sf.faster().unwrap().slower().unwrap(), *sf);
        }
        assert_eq!(SpreadingFactor::Sf7.faster(), None);
        assert_eq!(SpreadingFactor::Sf12.slower(), None);
    }

    #[test]
    fn index_is_dense() {
        for (i, sf) in SpreadingFactor::ALL.iter().enumerate() {
            assert_eq!(sf.index(), i);
        }
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(SpreadingFactor::Sf7 < SpreadingFactor::Sf12);
        assert!(SpreadingFactor::Sf9 < SpreadingFactor::Sf10);
    }
}
