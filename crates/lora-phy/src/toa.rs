//! Time-on-air of a LoRa frame.
//!
//! Implements the paper's Eq. (4), which matches the Semtech SX127x design
//! guide formula with the 8 base payload symbols folded into the preamble
//! term (20.25 = 12.25 preamble + 8 base payload symbols):
//!
//! ```text
//! T = (20.25 + max(ceil((8L − 4·SF + 28 + 16) / (4(SF − 2·DE))) · CR, 0)) · 2^SF / BW
//! ```
//!
//! where `L` is the PHY payload length in bytes, `CR ∈ 5..=8` the coding-rate
//! denominator, and `DE = 1` when the low-data-rate optimisation is enabled
//! (SF11/SF12 at 125 kHz).

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::channel::Bandwidth;
use crate::error::PhyError;
use crate::sf::SpreadingFactor;

/// Maximum LoRa PHY payload length in bytes.
pub const MAX_PHY_PAYLOAD: usize = 255;

/// Number of programmed preamble symbols used by LoRaWAN (the radio adds
/// 4.25 symbols of sync word on top).
pub const LORAWAN_PREAMBLE_SYMBOLS: u32 = 8;

/// Hamming coding rate of the LoRa payload.
///
/// `4/x`: four information bits plus `x − 4` redundancy bits. The paper uses
/// 4/7 throughout (single-bit correction without the extra redundancy of
/// 4/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodingRate {
    /// 4/5 — no error correction, least overhead.
    Cr4_5,
    /// 4/6.
    Cr4_6,
    /// 4/7 — corrects one bit error per codeword (the paper's choice).
    Cr4_7,
    /// 4/8 — corrects one bit error, detects two.
    Cr4_8,
}

impl CodingRate {
    /// The codeword length (the paper's `CR` multiplier, 5..=8).
    #[inline]
    pub fn denominator(self) -> u32 {
        match self {
            CodingRate::Cr4_5 => 5,
            CodingRate::Cr4_6 => 6,
            CodingRate::Cr4_7 => 7,
            CodingRate::Cr4_8 => 8,
        }
    }

    /// The code rate as a fraction (information bits / coded bits).
    #[inline]
    pub fn rate(self) -> f64 {
        4.0 / f64::from(self.denominator())
    }
}

impl Default for CodingRate {
    /// 4/7, the paper's choice.
    fn default() -> Self {
        CodingRate::Cr4_7
    }
}

/// Whether the low-data-rate optimisation (DE bit) is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LowDataRateOptimize {
    /// Let the implementation choose: enabled for SF11/SF12 at 125 kHz,
    /// as mandated by the LoRaWAN regional parameters.
    #[default]
    Auto,
    /// Force-enable.
    Enabled,
    /// Force-disable.
    Disabled,
}

/// Parameters needed to compute the time-on-air of a frame.
///
/// ```
/// use lora_phy::{Bandwidth, CodingRate, SpreadingFactor};
/// use lora_phy::toa::ToaParams;
///
/// # fn main() -> Result<(), lora_phy::PhyError> {
/// let params = ToaParams::new(SpreadingFactor::Sf7, Bandwidth::Bw125, CodingRate::Cr4_7);
/// let t = params.time_on_air(21)?;
/// // 21-byte PHY payload at SF7/125k, CR 4/7: 69.25 symbols of 1.024 ms.
/// assert!((t.as_secs_f64() - 0.070912).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToaParams {
    sf: SpreadingFactor,
    bw: Bandwidth,
    cr: CodingRate,
    preamble_symbols: u32,
    low_data_rate: LowDataRateOptimize,
}

impl ToaParams {
    /// Creates parameters with the LoRaWAN default preamble (8 symbols) and
    /// automatic low-data-rate optimisation.
    pub fn new(sf: SpreadingFactor, bw: Bandwidth, cr: CodingRate) -> Self {
        ToaParams {
            sf,
            bw,
            cr,
            preamble_symbols: LORAWAN_PREAMBLE_SYMBOLS,
            low_data_rate: LowDataRateOptimize::Auto,
        }
    }

    /// Sets the number of programmed preamble symbols.
    #[must_use]
    pub fn with_preamble_symbols(mut self, symbols: u32) -> Self {
        self.preamble_symbols = symbols;
        self
    }

    /// Sets the low-data-rate optimisation policy.
    #[must_use]
    pub fn with_low_data_rate(mut self, ldro: LowDataRateOptimize) -> Self {
        self.low_data_rate = ldro;
        self
    }

    /// The spreading factor.
    #[inline]
    pub fn sf(&self) -> SpreadingFactor {
        self.sf
    }

    /// The bandwidth.
    #[inline]
    pub fn bw(&self) -> Bandwidth {
        self.bw
    }

    /// The coding rate.
    #[inline]
    pub fn cr(&self) -> CodingRate {
        self.cr
    }

    /// Whether the DE bit ends up set for these parameters.
    ///
    /// `Auto` enables it for SF11/SF12 at 125 kHz, where the symbol time
    /// exceeds 16 ms and crystal drift would otherwise break demodulation.
    pub fn low_data_rate_enabled(&self) -> bool {
        match self.low_data_rate {
            LowDataRateOptimize::Enabled => true,
            LowDataRateOptimize::Disabled => false,
            LowDataRateOptimize::Auto => {
                self.bw == Bandwidth::Bw125 && self.sf >= SpreadingFactor::Sf11
            }
        }
    }

    /// Number of payload symbols for a `payload_len`-byte PHY payload
    /// (including the 8 base symbols), per the paper's Eq. (4) with explicit
    /// header and CRC on.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::PayloadTooLarge`] if `payload_len` exceeds
    /// [`MAX_PHY_PAYLOAD`].
    pub fn payload_symbols(&self, payload_len: usize) -> Result<u32, PhyError> {
        if payload_len > MAX_PHY_PAYLOAD {
            return Err(PhyError::PayloadTooLarge {
                len: payload_len,
                max: MAX_PHY_PAYLOAD,
            });
        }
        let de = if self.low_data_rate_enabled() {
            1i64
        } else {
            0
        };
        let sf = i64::from(self.sf.bits_per_symbol());
        // 8L − 4SF + 28 + 16: payload bits minus the bits absorbed by the
        // first (uncoded) symbols, plus header (28) and CRC (16) bits.
        let numerator = 8 * payload_len as i64 - 4 * sf + 28 + 16;
        let denominator = 4 * (sf - 2 * de);
        let blocks = if numerator > 0 {
            // ceil division for positive numerator
            (numerator + denominator - 1) / denominator
        } else {
            0
        };
        let coded = blocks.max(0) as u32 * self.cr.denominator();
        Ok(8 + coded)
    }

    /// Total number of symbols in the frame, including the preamble
    /// (`preamble_symbols + 4.25` sync symbols).
    pub fn total_symbols(&self, payload_len: usize) -> Result<f64, PhyError> {
        Ok(f64::from(self.preamble_symbols) + 4.25 + f64::from(self.payload_symbols(payload_len)?))
    }

    /// Time-on-air of a frame with a `payload_len`-byte PHY payload.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::PayloadTooLarge`] if the payload exceeds
    /// [`MAX_PHY_PAYLOAD`].
    pub fn time_on_air(&self, payload_len: usize) -> Result<Duration, PhyError> {
        let seconds = self.total_symbols(payload_len)? * self.sf.symbol_time_s(self.bw);
        Ok(Duration::from_secs_f64(seconds))
    }

    /// Time-on-air in seconds as `f64`, convenient for analytical models.
    pub fn time_on_air_s(&self, payload_len: usize) -> Result<f64, PhyError> {
        Ok(self.time_on_air(payload_len)?.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toa_ms(sf: SpreadingFactor, len: usize) -> f64 {
        ToaParams::new(sf, Bandwidth::Bw125, CodingRate::Cr4_7)
            .time_on_air_s(len)
            .unwrap()
            * 1000.0
    }

    #[test]
    fn paper_eq4_sf7_21_bytes() {
        // (20.25 + ceil((168−28+44)/28)·7) · 1.024 ms = (20.25 + 49) · 1.024
        assert!((toa_ms(SpreadingFactor::Sf7, 21) - 70.912).abs() < 1e-6);
    }

    #[test]
    fn paper_eq4_sf12_21_bytes_with_ldro() {
        // DE=1: denominator 4(12−2)=40; (168−48+44)=164 → ceil=5 → 35 coded
        // symbols; (20.25 + 35) · 32.768 ms = 1810.432 ms
        assert!((toa_ms(SpreadingFactor::Sf12, 21) - 1810.432).abs() < 1e-3);
    }

    #[test]
    fn ldro_auto_only_sf11_sf12_at_125k() {
        for sf in SpreadingFactor::ALL {
            let p = ToaParams::new(sf, Bandwidth::Bw125, CodingRate::Cr4_7);
            assert_eq!(
                p.low_data_rate_enabled(),
                sf >= SpreadingFactor::Sf11,
                "{sf}"
            );
            let p500 = ToaParams::new(sf, Bandwidth::Bw500, CodingRate::Cr4_7);
            assert!(!p500.low_data_rate_enabled(), "{sf} at 500 kHz");
        }
    }

    #[test]
    fn empty_payload_still_has_base_symbols() {
        let p = ToaParams::new(SpreadingFactor::Sf7, Bandwidth::Bw125, CodingRate::Cr4_7);
        // numerator = −4·7+44 = 16 > 0 → one coded block
        assert_eq!(p.payload_symbols(0).unwrap(), 8 + 7);
    }

    #[test]
    fn payload_too_large_is_rejected() {
        let p = ToaParams::new(SpreadingFactor::Sf7, Bandwidth::Bw125, CodingRate::Cr4_7);
        assert!(matches!(
            p.time_on_air(256),
            Err(PhyError::PayloadTooLarge { .. })
        ));
        assert!(p.time_on_air(255).is_ok());
    }

    #[test]
    fn toa_monotone_in_sf() {
        let mut last = 0.0;
        for sf in SpreadingFactor::ALL {
            let t = toa_ms(sf, 21);
            assert!(t > last, "{sf}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn toa_monotone_in_payload() {
        let p = ToaParams::new(SpreadingFactor::Sf9, Bandwidth::Bw125, CodingRate::Cr4_7);
        let mut last = 0.0;
        for len in 0..=255 {
            let t = p.time_on_air_s(len).unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn higher_coding_rate_is_slower() {
        let base = ToaParams::new(SpreadingFactor::Sf8, Bandwidth::Bw125, CodingRate::Cr4_5)
            .time_on_air_s(32)
            .unwrap();
        let robust = ToaParams::new(SpreadingFactor::Sf8, Bandwidth::Bw125, CodingRate::Cr4_8)
            .time_on_air_s(32)
            .unwrap();
        assert!(robust > base);
    }

    #[test]
    fn sf7_to_sf12_gap_is_large() {
        // The intro's "22x" gap for 100-byte frames (they quote 146 ms vs
        // 3200 ms with slightly different settings; the ratio is what
        // matters).
        let fast = toa_ms(SpreadingFactor::Sf7, 100);
        let slow = toa_ms(SpreadingFactor::Sf12, 100);
        let ratio = slow / fast;
        assert!((15.0..30.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn doubling_bandwidth_halves_toa() {
        let p125 = ToaParams::new(SpreadingFactor::Sf9, Bandwidth::Bw125, CodingRate::Cr4_7);
        let p250 = ToaParams::new(SpreadingFactor::Sf9, Bandwidth::Bw250, CodingRate::Cr4_7);
        let r = p125.time_on_air_s(21).unwrap() / p250.time_on_air_s(21).unwrap();
        assert!((r - 2.0).abs() < 1e-12);
    }
}
