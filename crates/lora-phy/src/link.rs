//! Link-budget computations.
//!
//! A gateway decodes an uplink packet when two conditions hold (paper
//! Eq. 7): the received power exceeds the gateway sensitivity for the
//! packet's SF, and the SNR (or SINR, with interference) exceeds the SF's
//! demodulation threshold.

use crate::channel::Bandwidth;
use crate::sf::SpreadingFactor;
use crate::THERMAL_NOISE_DBM_HZ;

/// Noise floor in dBm for a receiver of bandwidth `bw` and noise figure
/// `nf_db` (the first two terms of paper Eq. 11).
///
/// ```
/// use lora_phy::{Bandwidth, link::noise_floor_dbm};
/// let n = noise_floor_dbm(Bandwidth::Bw125, 6.0);
/// assert!((n - -117.03).abs() < 0.01);
/// ```
#[inline]
pub fn noise_floor_dbm(bw: Bandwidth, nf_db: f64) -> f64 {
    THERMAL_NOISE_DBM_HZ + 10.0 * bw.hz().log10() + nf_db
}

/// Received power in dBm given transmit power, a positive path loss in dB
/// and a linear fading power gain.
///
/// ```
/// use lora_phy::link::received_power_dbm;
/// assert_eq!(received_power_dbm(14.0, 120.0, 1.0), -106.0);
/// ```
#[inline]
pub fn received_power_dbm(tx_dbm: f64, loss_db: f64, fading_gain: f64) -> f64 {
    debug_assert!(fading_gain > 0.0, "fading power gain must be positive");
    tx_dbm - loss_db + 10.0 * fading_gain.log10()
}

/// The smallest spreading factor whose sensitivity is met by `rx_dbm`
/// (mean channel, margin `margin_db` of extra headroom), or `None` if even
/// SF12 cannot close the link.
///
/// This is the per-gateway building block of the legacy-LoRa baseline,
/// which picks the smallest SF based on estimated SNR while ignoring
/// interference (paper Section IV, "Benchmarks").
///
/// ```
/// use lora_phy::{Bandwidth, SpreadingFactor};
/// use lora_phy::link::min_feasible_sf;
/// // −120 dBm received: SF7 needs −123 dBm so it already works.
/// assert_eq!(
///     min_feasible_sf(-120.0, Bandwidth::Bw125, 6.0, 0.0),
///     Some(SpreadingFactor::Sf7)
/// );
/// // −136 dBm: only SF12 (−137 dBm) closes the link.
/// assert_eq!(
///     min_feasible_sf(-136.0, Bandwidth::Bw125, 6.0, 0.0),
///     Some(SpreadingFactor::Sf12)
/// );
/// // −140 dBm: unreachable.
/// assert_eq!(min_feasible_sf(-140.0, Bandwidth::Bw125, 6.0, 0.0), None);
/// ```
pub fn min_feasible_sf(
    rx_dbm: f64,
    bw: Bandwidth,
    nf_db: f64,
    margin_db: f64,
) -> Option<SpreadingFactor> {
    SpreadingFactor::ALL
        .into_iter()
        .find(|sf| rx_dbm >= sf.sensitivity_dbm(bw, nf_db) + margin_db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_at_125k_nf6() {
        // −174 + 50.97 + 6 = −117.03 dBm
        assert!((noise_floor_dbm(Bandwidth::Bw125, 6.0) + 117.03).abs() < 0.01);
    }

    #[test]
    fn fading_gain_shifts_rx_power() {
        let no_fade = received_power_dbm(14.0, 100.0, 1.0);
        let deep_fade = received_power_dbm(14.0, 100.0, 0.1);
        assert!((no_fade - deep_fade - 10.0).abs() < 1e-9);
    }

    #[test]
    fn min_feasible_sf_is_monotone_in_rx_power() {
        let mut last = Some(SpreadingFactor::Sf12);
        for rx in [-137.0, -133.0, -130.0, -127.0, -124.0, -120.0] {
            let sf = min_feasible_sf(rx, Bandwidth::Bw125, 6.0, 0.0);
            assert!(sf.is_some());
            assert!(sf <= last, "rx {rx}: {sf:?} vs {last:?}");
            last = sf;
        }
    }

    #[test]
    fn margin_makes_selection_conservative() {
        // −124 dBm barely fits SF7 (−123) — with a 3 dB margin it needs SF8.
        let tight = min_feasible_sf(-122.5, Bandwidth::Bw125, 6.0, 0.0);
        let safe = min_feasible_sf(-122.5, Bandwidth::Bw125, 6.0, 3.0);
        assert_eq!(tight, Some(SpreadingFactor::Sf7));
        assert_eq!(safe, Some(SpreadingFactor::Sf8));
    }
}
