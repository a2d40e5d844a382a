//! LoRa physical-layer model.
//!
//! This crate implements the PHY substrate used by the EF-LoRa reproduction
//! of *Towards Energy-Fairness in LoRa Networks* (ICDCS 2019):
//!
//! * [`SpreadingFactor`] — SF7..SF12 with symbol timing, demodulation SNR
//!   thresholds and receiver sensitivities (paper Table IV / Eq. 11),
//! * [`toa`] — time-on-air of a LoRa frame (paper Eq. 4, the Semtech SX127x
//!   formula),
//! * [`path_loss`] — attenuation models, including the paper's literal
//!   Eq. (9) and the log-distance model used for the experiments,
//! * [`fading`] — Rayleigh block fading with `Exp(1)` power gain,
//! * [`link`] — link-budget computations (received power, SNR, minimum
//!   feasible SF),
//! * [`energy`] — the radio energy model following Casals et al. (paper
//!   Eq. 3) including per-cycle sleep energy,
//! * [`region`] — regional channel counts, transmission-power sets and
//!   duty-cycle caps.
//!
//! # Example
//!
//! Compute how long a 21-byte PHY payload stays on air at SF12/125 kHz and
//! what the link budget looks like 2 km from a gateway:
//!
//! ```
//! use lora_phy::{Bandwidth, CodingRate, SpreadingFactor};
//! use lora_phy::toa::ToaParams;
//! use lora_phy::path_loss::PathLossModel;
//! use lora_phy::link::{noise_floor_dbm, received_power_dbm};
//!
//! # fn main() -> Result<(), lora_phy::PhyError> {
//! let toa = ToaParams::new(SpreadingFactor::Sf12, Bandwidth::Bw125, CodingRate::Cr4_7)
//!     .time_on_air(21)?;
//! assert!(toa.as_secs_f64() > 1.0, "SF12 frames are in the air for seconds");
//!
//! let model = PathLossModel::log_distance(903e6, 100.0);
//! let loss = model.loss_db(2_000.0, 3.2);
//! let rx = received_power_dbm(14.0, loss, 1.0);
//! let snr = rx - noise_floor_dbm(Bandwidth::Bw125, 6.0);
//! assert!(snr > SpreadingFactor::Sf12.snr_threshold_db());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod energy;
pub mod error;
pub mod fading;
pub mod link;
pub mod path_loss;
pub mod power;
pub mod region;
pub mod sf;
pub mod toa;
pub mod txconfig;

pub use channel::Bandwidth;
pub use error::PhyError;
pub use fading::Fading;
pub use power::TxPowerDbm;
pub use region::Region;
pub use sf::SpreadingFactor;
pub use toa::CodingRate;
pub use txconfig::TxConfig;

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Thermal noise density at 290 K, dBm per Hz (the `-174` of paper Eq. 11).
pub const THERMAL_NOISE_DBM_HZ: f64 = -174.0;

/// Converts a power in dBm to milliwatts.
///
/// ```
/// assert!((lora_phy::dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
/// assert!((lora_phy::dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
/// ```
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts a power in milliwatts to dBm.
///
/// # Panics
///
/// Panics in debug builds if `mw` is not strictly positive; a zero or
/// negative power has no dBm representation.
///
/// ```
/// assert!((lora_phy::mw_to_dbm(1.0)).abs() < 1e-12);
/// ```
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    debug_assert!(mw > 0.0, "power must be positive to convert to dBm");
    10.0 * mw.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_round_trip() {
        for dbm in [-137.0, -60.0, 0.0, 2.0, 14.0, 27.0] {
            let back = mw_to_dbm(dbm_to_mw(dbm));
            assert!((back - dbm).abs() < 1e-9, "{dbm} -> {back}");
        }
    }

    #[test]
    fn fourteen_dbm_is_about_25_mw() {
        let mw = dbm_to_mw(14.0);
        assert!((mw - 25.118_864).abs() < 1e-3);
    }
}
