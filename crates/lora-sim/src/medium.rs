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
//!
//! The reception decisions compare power ratios against fixed decibel
//! thresholds; [`DbThreshold`] decides them in linear units with the very
//! verdicts of the decibel comparison.

use lora_mac::collision::InterSfPolicy;
use lora_phy::SpreadingFactor;

/// Half-width of the band around a threshold's linear value inside which
/// [`DbThreshold::passes`] falls back to the decibel comparison: `2⁻³⁰`.
///
/// Outside the band the linear comparison decides exactly as
/// `10·log10(r) ≥ t` does. Let `L` be the computed `10^(t/10)`, a normal
/// number; `powf` and the division `t/10` put it within a few ulps of the
/// true value, so `log10(L)` is within about `10⁻¹³` of `t/10` even for
/// `|t|` in the thousands. A ratio `r > L·(1 + 2⁻³⁰)` has a true
/// `log10(r)` at least `log10(1 + 2⁻³⁰) ≈ 4.0·10⁻¹⁰` above `t/10`. libm's
/// `log10` errs by at most a few ulps, an absolute error below `3·10⁻¹³`
/// for any finite `r` (its result is at most 324 in magnitude), and the
/// `10·` product rounds by half an ulp. Both are more than a thousand
/// times smaller than the margin, so the computed `10·log10(r)` clears
/// `t`: the decibel comparison passes too. The case `r < L·(1 − 2⁻³⁰)` is
/// symmetric and fails on both sides. Zero, negative and subnormal ratios
/// fall below the band and fail, as `log10` gives them `−∞`, NaN or a
/// value near −3 000 dB; `+∞` lies above it and passes, as `log10` gives
/// `+∞`; NaN lies in neither and takes the decibel comparison. A threshold
/// whose `L` is not normal, or whose band edge overflows, always takes the
/// decibel comparison.
///
/// A band of `2⁻⁵²` is too narrow: at SF11's −17.5 dB threshold the ratio
/// two ulps below `L` passes in decibels but would fail in linear units.
const THRESHOLD_BAND: f64 = 1.0 / (1u64 << 30) as f64;

/// A fixed threshold in dB on a linear power ratio: the capture margin or
/// an SF's SNR demodulation threshold.
///
/// [`DbThreshold::passes`] returns exactly `10·log10(r) ≥ t` for every
/// ratio `r`, but calls `log10` only for ratios within [`THRESHOLD_BAND`]
/// of the threshold's linear value.
#[derive(Debug, Clone, Copy)]
pub struct DbThreshold {
    db: f64,
    /// Ratios below this fail without `log10`.
    below: f64,
    /// Ratios above this pass without `log10`.
    above: f64,
}

impl DbThreshold {
    /// Precomputes the linear band of the threshold `db`.
    pub fn new(db: f64) -> Self {
        let linear = 10f64.powf(db / 10.0);
        let below = linear * (1.0 - THRESHOLD_BAND);
        let above = linear * (1.0 + THRESHOLD_BAND);
        if linear.is_normal() && below.is_normal() && above.is_finite() {
            DbThreshold { db, below, above }
        } else {
            // No band: every ratio takes the decibel comparison.
            DbThreshold {
                db,
                below: f64::NEG_INFINITY,
                above: f64::INFINITY,
            }
        }
    }

    /// Whether the power ratio `ratio` clears the threshold, i.e.
    /// `10·log10(ratio) ≥ db`, bit for bit.
    #[inline]
    pub fn passes(&self, ratio: f64) -> bool {
        if ratio > self.above {
            true
        } else if ratio < self.below {
            false
        } else {
            10.0 * ratio.log10() >= self.db
        }
    }
}

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
    /// Signal-to-interference-plus-noise ratio (linear) at gateway `gw`,
    /// given a noise floor in milliwatts.
    #[inline]
    pub fn sinr(&self, gw: usize, noise_mw: f64) -> f64 {
        let signal = self.rx_power_mw[gw];
        let denom = self.interference_mw[gw] + noise_mw;
        signal / denom
    }

    /// Total jamming power overlapping this transmission, milliwatts.
    /// Added to the noise floor in [`ActiveTx::sinr`]'s `noise_mw`
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
    /// `InterSfPolicy::interference_weight(victim, interferer)` by SF index.
    weights: [[f64; 6]; 6],
    n_gateways: usize,
}

impl Medium {
    /// Creates an empty medium.
    pub fn new(inter_sf: InterSfPolicy, n_gateways: usize) -> Self {
        let mut weights = [[0.0; 6]; 6];
        for victim in SpreadingFactor::ALL {
            for interferer in SpreadingFactor::ALL {
                weights[victim.index()][interferer.index()] =
                    inter_sf.interference_weight(victim, interferer);
            }
        }
        Medium {
            active: Vec::new(),
            weights,
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
            let w_other = self.weights[other.sf.index()][tx.sf.index()];
            // … and `tx` suffers from `other`.
            let w_tx = self.weights[tx.sf.index()][other.sf.index()];
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
    use proptest::prelude::*;

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
        assert!((t.sinr(0, 0.1) - 10.0).abs() < 1e-9);
        t.interference_mw[0] = 0.9;
        assert!((t.sinr(0, 0.1) - 1.0).abs() < 1e-9);
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

    /// The thresholds the simulator decides: the default capture margin
    /// and every SF's SNR demodulation threshold.
    fn thresholds() -> Vec<f64> {
        let mut t = vec![6.0];
        t.extend(SpreadingFactor::ALL.map(|sf| sf.snr_threshold_db()));
        t
    }

    /// The decibel comparison the linear decision must repeat.
    fn db_passes(ratio: f64, db: f64) -> bool {
        10.0 * ratio.log10() >= db
    }

    /// `x` moved by `k` ulps (for positive, normal `x` far from zero).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// The linear value of each threshold and both band edges.
    fn centres(db: f64) -> [f64; 3] {
        let th = DbThreshold::new(db);
        [10f64.powf(db / 10.0), th.below, th.above]
    }

    #[test]
    fn thresholds_decide_as_decibels_near_every_band_edge() {
        for db in thresholds() {
            let th = DbThreshold::new(db);
            assert!(
                th.below.is_finite() && th.above.is_finite(),
                "{db} dB has a band"
            );
            for centre in centres(db) {
                for k in -(1i64 << 12)..=(1i64 << 12) {
                    let r = ulps(centre, k);
                    assert_eq!(th.passes(r), db_passes(r, db), "{db} dB, ratio {r:e}");
                }
            }
        }
    }

    #[test]
    fn thresholds_decide_special_ratios_as_decibels() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.0,
        ];
        for db in thresholds().into_iter().chain([0.0, -0.0, 1e4, -1e4]) {
            let th = DbThreshold::new(db);
            for r in specials {
                assert_eq!(th.passes(r), db_passes(r, db), "{db} dB, ratio {r:e}");
            }
        }
        // Thresholds without a band fall back to the decibel comparison.
        for db in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            3_090.0,
            -3_090.0,
        ] {
            let th = DbThreshold::new(db);
            for r in specials.into_iter().chain([1e-310, 1e300]) {
                assert_eq!(th.passes(r), db_passes(r, db), "{db} dB, ratio {r:e}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn thresholds_decide_as_decibels_over_forty_decades(
            exponent in -20.0f64..20.0,
            which in 0usize..7,
        ) {
            let db = thresholds()[which];
            let r = 10f64.powf(exponent);
            prop_assert_eq!(DbThreshold::new(db).passes(r), db_passes(r, db));
        }

        #[test]
        fn thresholds_decide_as_decibels_near_the_band(
            k in -(1i64 << 20)..(1i64 << 20),
            which in 0usize..7,
            edge in 0usize..3,
        ) {
            let db = thresholds()[which];
            let r = ulps(centres(db)[edge], k);
            prop_assert_eq!(DbThreshold::new(db).passes(r), db_passes(r, db));
        }
    }

    #[test]
    #[should_panic(expected = "TxEnd without matching TxStart")]
    fn end_without_start_panics() {
        let mut m = Medium::new(InterSfPolicy::Orthogonal, 1);
        let _ = m.end(3, 1);
    }
}
