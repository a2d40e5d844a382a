//! Collision and interference rules.
//!
//! The paper adopts the rule of Liando et al. \[5\]: two packets interfere iff
//! they use the **same spreading factor** and the **same channel** and their
//! transmissions overlap in time, regardless of how small the overlap is
//! (Section III-A). Different SFs on one channel are quasi-orthogonal and
//! decode concurrently. The simulator's medium applies the time and
//! channel parts of that rule; [`InterSfPolicy`] decides the SF part.
//!
//! Section III-E notes that real SFs are *imperfectly* orthogonal; the
//! paper leaves this to future work. [`InterSfPolicy::ImperfectOrthogonality`]
//! implements that extension using the co-channel rejection thresholds
//! measured by Croce et al. (paper reference \[37\]).

use serde::{Deserialize, Serialize};

use lora_phy::SpreadingFactor;

/// How transmissions on different spreading factors interact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum InterSfPolicy {
    /// Perfect orthogonality — the paper's main model: only co-SF,
    /// co-channel transmissions interfere.
    #[default]
    Orthogonal,
    /// Imperfect orthogonality (the Section III-E extension): a packet on
    /// SF `i` is also degraded by a packet on SF `j ≠ i` unless the desired
    /// signal exceeds the interferer by the co-channel rejection threshold.
    ImperfectOrthogonality,
}

/// Co-channel rejection matrix in dB, after Croce et al. ("Impact of LoRa
/// imperfect orthogonality", IEEE Comm. Letters 2018). Entry `[i][j]` is the
/// minimum power margin (signal − interferer, in dB) that SF `7+i` needs to
/// survive an interferer on SF `7+j`. The diagonal is the co-SF capture
/// threshold (≈ 6 dB in the SINR sense, expressed as 1 dB margin in
/// Croce's table — we keep Croce's measured values).
pub const CO_CHANNEL_REJECTION_DB: [[f64; 6]; 6] = [
    [1.0, -8.0, -9.0, -9.0, -9.0, -9.0],
    [-11.0, 1.0, -11.0, -12.0, -13.0, -13.0],
    [-15.0, -13.0, 1.0, -13.0, -14.0, -15.0],
    [-19.0, -18.0, -17.0, 1.0, -17.0, -18.0],
    [-22.0, -22.0, -21.0, -20.0, 1.0, -20.0],
    [-25.0, -25.0, -25.0, -24.0, -23.0, 1.0],
];

impl InterSfPolicy {
    /// Whether a transmission on `victim_sf` is *potentially* affected by a
    /// concurrent transmission on `interferer_sf` sharing the channel.
    ///
    /// Under [`InterSfPolicy::Orthogonal`] only equal SFs interact; under
    /// imperfect orthogonality every SF pair interacts (the power margin
    /// then decides survival — see [`InterSfPolicy::rejection_db`]).
    #[inline]
    pub fn interacts(&self, victim_sf: SpreadingFactor, interferer_sf: SpreadingFactor) -> bool {
        match self {
            InterSfPolicy::Orthogonal => victim_sf == interferer_sf,
            InterSfPolicy::ImperfectOrthogonality => true,
        }
    }

    /// The power margin in dB that the victim needs over the interferer to
    /// be captured, or `None` if the pair does not interact under this
    /// policy.
    pub fn rejection_db(
        &self,
        victim_sf: SpreadingFactor,
        interferer_sf: SpreadingFactor,
    ) -> Option<f64> {
        if !self.interacts(victim_sf, interferer_sf) {
            return None;
        }
        Some(CO_CHANNEL_REJECTION_DB[victim_sf.index()][interferer_sf.index()])
    }

    /// Linear power weight of an interferer on SF `interferer_sf` as seen by
    /// a victim on SF `victim_sf`: 1 for a co-SF interferer, the inverse of
    /// the rejection threshold for cross-SF pairs under imperfect
    /// orthogonality, and 0 for non-interacting pairs.
    ///
    /// Multiplying interferer powers by this weight lets the simulator use a
    /// single SINR formula for both policies.
    pub fn interference_weight(
        &self,
        victim_sf: SpreadingFactor,
        interferer_sf: SpreadingFactor,
    ) -> f64 {
        match self.rejection_db(victim_sf, interferer_sf) {
            None => 0.0,
            Some(_) if victim_sf == interferer_sf => 1.0,
            Some(rej_db) => {
                // A rejection of −R dB means an interferer R dB *stronger*
                // than the signal is still tolerated: scale its power by
                // 10^(rej/10) relative to a co-SF interferer.
                10f64.powf(rej_db / 10.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_policy_ignores_cross_sf() {
        let p = InterSfPolicy::Orthogonal;
        assert!(p.interacts(SpreadingFactor::Sf7, SpreadingFactor::Sf7));
        assert!(!p.interacts(SpreadingFactor::Sf7, SpreadingFactor::Sf12));
        assert_eq!(
            p.interference_weight(SpreadingFactor::Sf7, SpreadingFactor::Sf12),
            0.0
        );
        assert_eq!(
            p.interference_weight(SpreadingFactor::Sf7, SpreadingFactor::Sf7),
            1.0
        );
    }

    #[test]
    fn imperfect_policy_weights_cross_sf() {
        let p = InterSfPolicy::ImperfectOrthogonality;
        let w = p.interference_weight(SpreadingFactor::Sf7, SpreadingFactor::Sf8);
        // −8 dB rejection → weight 10^(−0.8) ≈ 0.158
        assert!((w - 10f64.powf(-0.8)).abs() < 1e-12);
        // Larger victim SFs reject interferers better (smaller weight).
        let w12 = p.interference_weight(SpreadingFactor::Sf12, SpreadingFactor::Sf8);
        assert!(w12 < w);
    }

    #[test]
    fn rejection_matrix_diagonal_is_capture_threshold() {
        for sf in SpreadingFactor::ALL {
            let p = InterSfPolicy::ImperfectOrthogonality;
            assert_eq!(p.rejection_db(sf, sf), Some(1.0));
        }
    }
}
