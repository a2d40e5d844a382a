//! ALOHA contention within a (SF, channel) group.
//!
//! Under the paper's collision rule only devices sharing both the spreading
//! factor and the channel contend. With unslotted-ALOHA periodic reporting,
//! the probability that at least one of the `m` co-group devices overlaps a
//! given transmission is modelled as `h = 1 − e^{−α·m}` where `α = T/T_g`
//! is the common duty cycle of the group (paper Eq. 14–15; all group
//! members share the SF and therefore the time-on-air).

use lora_phy::{SpreadingFactor, TxConfig};

/// Number of (SF, channel) contention groups for a `channels`-channel plan.
#[inline]
pub fn group_count(channels: usize) -> usize {
    SpreadingFactor::COUNT * channels
}

/// Dense index of the (SF, channel) group.
#[inline]
pub fn group_index(sf: SpreadingFactor, channel: usize, channels: usize) -> usize {
    debug_assert!(channel < channels);
    sf.index() * channels + channel
}

/// Counts devices per (SF, channel) group — the paper's `N_{s,c}` table.
pub fn group_occupancy(alloc: &[TxConfig], channels: usize) -> Vec<usize> {
    let mut counts = vec![0usize; group_count(channels)];
    for cfg in alloc {
        counts[group_index(cfg.sf, cfg.channel, channels)] += 1;
    }
    counts
}

/// The overlap probability `h = 1 − e^{−α·m}` with duty cycle `alpha` and
/// `m` *other* contending devices (paper Eq. 14, applied to the contenders
/// of a tagged device).
///
/// ```
/// let h = lora_model::contention::overlap_probability(0.01, 50);
/// assert!((h - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
/// assert_eq!(lora_model::contention::overlap_probability(0.01, 0), 0.0);
/// ```
#[inline]
pub fn overlap_probability(alpha: f64, contenders: usize) -> f64 {
    debug_assert!((0.0..=1.0).contains(&alpha), "duty cycle must be in [0, 1]");
    overlap_from_load(alpha * contenders as f64)
}

/// The overlap probability `1 − e^{−load}` for a summed contender duty
/// load `load = Σ_j α_j` — the heterogeneous-rates generalisation of
/// Eq. (14) (Section III-E): with equal duty cycles `load = α·m` and this
/// reduces to [`overlap_probability`].
///
/// ```
/// use lora_model::contention::{overlap_from_load, overlap_probability};
/// assert_eq!(overlap_from_load(0.01 * 50.0), overlap_probability(0.01, 50));
/// ```
#[inline]
pub fn overlap_from_load(load: f64) -> f64 {
    debug_assert!(load >= 0.0, "contention load must be non-negative");
    1.0 - (-load).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::TxPowerDbm;

    #[test]
    fn forty_eight_groups_for_eight_channels() {
        // "theoretically at most 48 LoRa signals (eight channels and six
        // spreading factors) can be decoded without interference"
        assert_eq!(group_count(8), 48);
    }

    #[test]
    fn occupancy_counts_by_group() {
        let alloc = vec![
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), 0),
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(2.0), 0),
            TxConfig::new(SpreadingFactor::Sf8, TxPowerDbm::new(14.0), 0),
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), 1),
        ];
        let counts = group_occupancy(&alloc, 8);
        assert_eq!(counts[group_index(SpreadingFactor::Sf7, 0, 8)], 2);
        assert_eq!(counts[group_index(SpreadingFactor::Sf8, 0, 8)], 1);
        assert_eq!(counts[group_index(SpreadingFactor::Sf7, 1, 8)], 1);
        assert_eq!(counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn overlap_probability_is_monotone() {
        let mut last = 0.0;
        for m in [0, 1, 5, 20, 100, 1000] {
            let h = overlap_probability(0.005, m);
            assert!((0.0..=1.0).contains(&h));
            assert!(h >= last);
            last = h;
        }
    }

    #[test]
    fn overlap_probability_saturates() {
        assert!(overlap_probability(0.5, 1000) > 0.999_999);
    }
}
