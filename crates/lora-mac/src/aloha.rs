//! Unslotted-ALOHA duty cycle.
//!
//! LoRaWAN class-A devices transmit whenever the application produces a
//! reading — pure unslotted ALOHA (paper Section III-A). Each end device
//! reports periodically with interval `T_g`; the phase of the cycle is
//! random per device, which is what makes collisions probabilistic.

/// The duty cycle `α_i = T_i / T_g` of a device transmitting a frame with
/// time-on-air `toa_s` every `interval_s` seconds (paper Eq. 15).
///
/// ```
/// let a = lora_mac::aloha::duty_cycle(1.8, 600.0);
/// assert!((a - 0.003).abs() < 1e-12);
/// ```
#[inline]
pub fn duty_cycle(toa_s: f64, interval_s: f64) -> f64 {
    debug_assert!(toa_s >= 0.0 && interval_s > 0.0);
    (toa_s / interval_s).min(1.0)
}

/// Whether a schedule respects a regulatory duty-cycle cap (ETSI: 1 %).
#[inline]
pub fn respects_duty_cycle_cap(toa_s: f64, interval_s: f64, cap: f64) -> bool {
    duty_cycle(toa_s, interval_s) <= cap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_saturates_at_one() {
        assert_eq!(duty_cycle(20.0, 10.0), 1.0);
    }

    #[test]
    fn one_percent_cap() {
        // SF7 21-byte frame (~71 ms) at 600 s interval is far below 1 %.
        assert!(respects_duty_cycle_cap(0.0709, 600.0, 0.01));
        // An SF12 frame every 100 s breaks it.
        assert!(!respects_duty_cycle_cap(1.81, 100.0, 0.01));
    }
}
