//! The shared radio medium: concurrent transmissions and interference.
//!
//! Every in-flight transmission carries, per gateway, the received signal
//! power (path loss + one Rayleigh draw) and an accumulator of interfering
//! power. When a new transmission starts, it exchanges interference
//! contributions with every overlapping transmission on the same channel,
//! weighted by the inter-SF policy (1 for co-SF pairs — the paper's rule —
//! and 0 or a rejection-derived weight for cross-SF pairs). The paper's
//! "any overlap counts" rule is inherited from this bookkeeping: any
//! overlap deposits the full interferer power into the accumulator.

use lora_mac::collision::InterSfPolicy;
use lora_phy::SpreadingFactor;

/// One transmission currently in the air.
#[derive(Debug, Clone)]
pub struct ActiveTx {
    /// Transmitting device index.
    pub device: usize,
    /// Transmission sequence number on that device.
    pub seq: u32,
    /// Start time, seconds.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Spreading factor in use.
    pub sf: SpreadingFactor,
    /// Channel index in use.
    pub channel: usize,
    /// Received signal power per gateway, milliwatts (fading applied).
    pub rx_power_mw: Vec<f64>,
    /// Accumulated interference per gateway, milliwatts.
    pub interference_mw: Vec<f64>,
    /// Whether a demodulator path was locked per gateway.
    pub demod_locked: Vec<bool>,
}

impl ActiveTx {
    /// Signal-to-interference-plus-noise ratio in dB at gateway `gw`, given
    /// a noise floor in milliwatts.
    pub fn sinr_db(&self, gw: usize, noise_mw: f64) -> f64 {
        let signal = self.rx_power_mw[gw];
        let denom = self.interference_mw[gw] + noise_mw;
        10.0 * (signal / denom).log10()
    }

    /// Total jamming power overlapping this transmission, milliwatts.
    /// Added to the noise floor in [`ActiveTx::sinr_db`]'s `noise_mw`
    /// argument; `0.0` when no burst touches the reception, which keeps
    /// the fault-free SINR bit-identical (`x + 0.0 == x` in IEEE 754).
    pub fn jam_noise_mw(&self, bursts: &[crate::faults::JamBurst]) -> f64 {
        bursts
            .iter()
            .filter(|b| b.overlaps(self.channel, self.start_s, self.end_s))
            .map(|b| b.power_mw)
            .sum()
    }
}

/// The set of in-flight transmissions with interference bookkeeping.
#[derive(Debug)]
pub struct Medium {
    active: Vec<ActiveTx>,
    inter_sf: InterSfPolicy,
    n_gateways: usize,
}

impl Medium {
    /// Creates an empty medium.
    pub fn new(inter_sf: InterSfPolicy, n_gateways: usize) -> Self {
        Medium {
            active: Vec::new(),
            inter_sf,
            n_gateways,
        }
    }

    /// Inserts a new transmission, exchanging interference with every
    /// overlapping transmission on the same channel.
    pub fn start(&mut self, mut tx: ActiveTx) {
        debug_assert_eq!(tx.rx_power_mw.len(), self.n_gateways);
        debug_assert_eq!(tx.interference_mw.len(), self.n_gateways);
        for other in &mut self.active {
            if other.channel != tx.channel {
                continue;
            }
            // `other` suffers from `tx` …
            let w_other = self.inter_sf.interference_weight(other.sf, tx.sf);
            // … and `tx` suffers from `other`.
            let w_tx = self.inter_sf.interference_weight(tx.sf, other.sf);
            if w_other == 0.0 && w_tx == 0.0 {
                continue;
            }
            for gw in 0..self.n_gateways {
                other.interference_mw[gw] += w_other * tx.rx_power_mw[gw];
                tx.interference_mw[gw] += w_tx * other.rx_power_mw[gw];
            }
        }
        self.active.push(tx);
    }

    /// Removes and returns the transmission `(device, seq)` at its end time.
    ///
    /// # Panics
    ///
    /// Panics if the transmission is not in flight — the event queue
    /// guarantees one `TxEnd` per `TxStart`.
    pub fn end(&mut self, device: usize, seq: u32) -> ActiveTx {
        let idx = self
            .active
            .iter()
            .position(|t| t.device == device && t.seq == seq)
            .expect("TxEnd without matching TxStart");
        self.active.swap_remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(device: usize, sf: SpreadingFactor, channel: usize, power_mw: f64) -> ActiveTx {
        ActiveTx {
            device,
            seq: 0,
            start_s: 0.0,
            end_s: 1.0,
            sf,
            channel,
            rx_power_mw: vec![power_mw, power_mw / 2.0],
            interference_mw: vec![0.0; 2],
            demod_locked: vec![true; 2],
        }
    }

    #[test]
    fn co_sf_co_channel_exchange_full_power() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 2);
        m.start(tx(0, SpreadingFactor::Sf7, 0, 1.0));
        m.start(tx(1, SpreadingFactor::Sf7, 0, 2.0));
        let a = m.end(0, 0);
        let b = m.end(1, 0);
        assert_eq!(a.interference_mw[0], 2.0);
        assert_eq!(a.interference_mw[1], 1.0);
        assert_eq!(b.interference_mw[0], 1.0);
        assert_eq!(b.interference_mw[1], 0.5);
    }

    #[test]
    fn different_channel_does_not_interfere() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 2);
        m.start(tx(0, SpreadingFactor::Sf7, 0, 1.0));
        m.start(tx(1, SpreadingFactor::Sf7, 1, 2.0));
        assert_eq!(m.end(0, 0).interference_mw, vec![0.0, 0.0]);
    }

    #[test]
    fn different_sf_orthogonal_policy() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 2);
        m.start(tx(0, SpreadingFactor::Sf7, 0, 1.0));
        m.start(tx(1, SpreadingFactor::Sf9, 0, 2.0));
        assert_eq!(m.end(0, 0).interference_mw, vec![0.0, 0.0]);
    }

    #[test]
    fn different_sf_imperfect_policy_leaks() {
        let mut m = Medium::new(InterSfPolicy::ImperfectOrthogonality, 2);
        m.start(tx(0, SpreadingFactor::Sf7, 0, 1.0));
        m.start(tx(1, SpreadingFactor::Sf9, 0, 2.0));
        let a = m.end(0, 0);
        assert!(a.interference_mw[0] > 0.0);
        assert!(a.interference_mw[0] < 2.0, "cross-SF leak is attenuated");
    }

    #[test]
    fn three_way_interference_accumulates() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 2);
        m.start(tx(0, SpreadingFactor::Sf8, 3, 1.0));
        m.start(tx(1, SpreadingFactor::Sf8, 3, 2.0));
        m.start(tx(2, SpreadingFactor::Sf8, 3, 4.0));
        let a = m.end(0, 0);
        assert_eq!(a.interference_mw[0], 6.0);
    }

    #[test]
    fn sinr_computation() {
        let mut t = tx(0, SpreadingFactor::Sf7, 0, 1.0);
        t.interference_mw = vec![0.0, 0.0];
        // No interference: SINR = signal / noise.
        let sinr = t.sinr_db(0, 0.1);
        assert!((sinr - 10.0).abs() < 1e-9);
        t.interference_mw[0] = 0.9;
        assert!((t.sinr_db(0, 0.1) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn ended_transmissions_stop_interfering() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 2);
        m.start(tx(0, SpreadingFactor::Sf7, 0, 1.0));
        let _ = m.end(0, 0);
        m.start(tx(1, SpreadingFactor::Sf7, 0, 2.0));
        assert_eq!(m.end(1, 0).interference_mw, vec![0.0, 0.0]);
    }

    #[test]
    fn jam_noise_sums_overlapping_bursts_only() {
        use crate::faults::JamBurst;
        let t = tx(0, SpreadingFactor::Sf7, 2, 1.0); // airborne over [0, 1)
        let bursts = [
            JamBurst {
                channel: 2,
                from_s: 0.5,
                to_s: 2.0,
                power_mw: 1e-6,
            },
            JamBurst {
                channel: 2,
                from_s: 0.0,
                to_s: 0.2,
                power_mw: 3e-6,
            },
            JamBurst {
                channel: 1,
                from_s: 0.0,
                to_s: 2.0,
                power_mw: 7e-6,
            }, // other channel
            JamBurst {
                channel: 2,
                from_s: 1.0,
                to_s: 2.0,
                power_mw: 9e-6,
            }, // starts at end
        ];
        assert!((t.jam_noise_mw(&bursts) - 4e-6).abs() < 1e-18);
        assert_eq!(t.jam_noise_mw(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "TxEnd without matching TxStart")]
    fn end_without_start_panics() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 1);
        let _ = m.end(3, 1);
    }
}
