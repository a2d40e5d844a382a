//! LoRaWAN Adaptive Data Rate (ADR), as a one-shot allocation baseline.
//!
//! ADR is the mechanism real LoRaWAN network servers use (and the body of
//! related work the paper discusses in Section V): from the best measured
//! SNR of a device's uplinks, compute the link margin over the current
//! data rate's demodulation floor minus a safety margin, and spend it in
//! 3 dB steps — first raising the data rate (lowering the SF), then
//! lowering the transmission power. This module applies the standard
//! network-server algorithm (as deployed by The Things Network) to the
//! model's estimated SNR, yielding the allocation an ADR-operated network
//! would converge to.
//!
//! ADR is *link-margin* driven: it knows nothing about contention, so —
//! like legacy LoRa — it stampedes well-covered fleets onto SF7, just
//! with tidier power levels. That is exactly the failure mode EF-LoRa's
//! network-wide model addresses.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use lora_phy::link::noise_floor_dbm;
use lora_phy::{Bandwidth, SpreadingFactor, TxConfig, TxPowerDbm};

use crate::allocation::Allocation;
use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::strategy::Strategy;

/// The ADR baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdrLora {
    /// Seed for the random channel draw.
    pub channel_seed: u64,
    /// The installation/safety margin in dB subtracted from the measured
    /// link margin (TTN default: 10 dB).
    pub device_margin_db: f64,
}

impl Default for AdrLora {
    fn default() -> Self {
        AdrLora {
            channel_seed: 0,
            device_margin_db: 10.0,
        }
    }
}

impl AdrLora {
    /// Creates the baseline with a channel-draw seed and the default
    /// 10 dB device margin.
    pub fn new(channel_seed: u64) -> Self {
        AdrLora {
            channel_seed,
            ..AdrLora::default()
        }
    }

    /// The network-server ADR step: from the best SNR a device would see
    /// at maximum power, derive its (SF, TP).
    fn adr_step(
        &self,
        best_snr_db: f64,
        tp_levels: &[TxPowerDbm],
    ) -> (SpreadingFactor, TxPowerDbm) {
        let mut sf = SpreadingFactor::Sf12;
        let mut tp_index = tp_levels.len() - 1; // maximum power
        let required = sf.snr_threshold_db();
        let margin = best_snr_db - required - self.device_margin_db;
        let mut steps = (margin / 3.0).floor() as i64;
        while steps > 0 {
            if let Some(faster) = sf.faster() {
                sf = faster;
                steps -= 1;
            } else {
                break;
            }
        }
        while steps > 0 && tp_index > 0 {
            tp_index -= 1;
            steps -= 1;
        }
        (sf, tp_levels[tp_index])
    }
}

impl Strategy for AdrLora {
    fn name(&self) -> &str {
        "ADR"
    }

    fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError> {
        ctx.check_nonempty()?;
        let model = ctx.model();
        let max_tp = ctx.max_tp();
        let tp_levels = ctx.tp_levels();
        let noise = noise_floor_dbm(Bandwidth::Bw125, ctx.config().noise_figure_db);
        let mut rng = ChaCha12Rng::seed_from_u64(self.channel_seed);
        let channels = ctx.channel_count();

        let configs = (0..ctx.device_count())
            .map(|i| {
                let best_atten = (0..model.gateway_count())
                    .map(|k| model.attenuation(i, k))
                    .fold(0.0f64, f64::max);
                let (sf, tp) = if best_atten > 0.0 {
                    let best_rx_dbm = max_tp.dbm() + 10.0 * best_atten.log10();
                    self.adr_step(best_rx_dbm - noise, tp_levels)
                } else {
                    (SpreadingFactor::Sf12, max_tp)
                };
                TxConfig::new(sf, tp, rng.gen_range(0..channels))
            })
            .collect();
        Ok(Allocation::new(configs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_model::NetworkModel;
    use lora_sim::{SimConfig, Topology};

    fn context_parts(n: usize, radius: f64, seed: u64) -> (SimConfig, Topology) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, 1, radius, &config, seed);
        (config, topo)
    }

    #[test]
    fn strong_links_get_small_sf_and_low_power() {
        let adr = AdrLora::default();
        let levels = lora_phy::TxPowerDbm::eu_levels();
        // 40 dB margin over SF12's −20 dB floor minus the 10 dB device
        // margin leaves 50 dB → 16 steps: SF12→SF7 (5) then power to the
        // bottom.
        let (sf, tp) = adr.adr_step(30.0, &levels);
        assert_eq!(sf, SpreadingFactor::Sf7);
        assert_eq!(tp.dbm(), 2.0);
    }

    #[test]
    fn weak_links_stay_conservative() {
        let adr = AdrLora::default();
        let levels = lora_phy::TxPowerDbm::eu_levels();
        // SNR at exactly the SF12 floor: no margin to spend.
        let (sf, tp) = adr.adr_step(-20.0, &levels);
        assert_eq!(sf, SpreadingFactor::Sf12);
        assert_eq!(tp.dbm(), 14.0);
    }

    #[test]
    fn three_db_per_step() {
        let adr = AdrLora::default();
        let levels = lora_phy::TxPowerDbm::eu_levels();
        // One step of margin: one SF faster.
        let (sf, _) = adr.adr_step(-20.0 + 10.0 + 3.0, &levels);
        assert_eq!(sf, SpreadingFactor::Sf11);
        let (sf, _) = adr.adr_step(-20.0 + 10.0 + 6.0, &levels);
        assert_eq!(sf, SpreadingFactor::Sf10);
    }

    #[test]
    fn allocation_is_valid_and_margin_sensitive() {
        let (config, topo) = context_parts(60, 4_000.0, 5);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let alloc = AdrLora::default().allocate(&ctx).unwrap();
        assert!(alloc.satisfies_constraints(2.0, 14.0, 8));
        // A bolder margin (0 dB) must never pick slower SFs than the
        // conservative default anywhere.
        let bold = AdrLora {
            device_margin_db: 0.0,
            ..AdrLora::default()
        }
        .allocate(&ctx)
        .unwrap();
        for (c, b) in alloc.iter().zip(bold.iter()) {
            assert!(b.sf <= c.sf, "bold {b} vs conservative {c}");
        }
    }

    #[test]
    fn compact_cells_stampede_to_sf7() {
        // ADR's known failure mode: link-margin-driven allocation ignores
        // contention and puts a well-covered fleet on SF7.
        let config = SimConfig {
            p_los: 1.0,
            ..SimConfig::default()
        };
        let topo = Topology::disc(50, 1, 600.0, &config, 7);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let alloc = AdrLora::default().allocate(&ctx).unwrap();
        assert_eq!(alloc.sf_histogram()[0], 50, "{:?}", alloc.sf_histogram());
        // …but unlike legacy, it also turns the power down.
        assert!(alloc.mean_tp_dbm() < 14.0);
    }
}
