//! Property-based tests for the PHY layer.

use lora_phy::link::{min_feasible_sf, noise_floor_dbm, received_power_dbm};
use lora_phy::path_loss::PathLossModel;
use lora_phy::toa::{CodingRate, ToaParams};
use lora_phy::{Bandwidth, Fading, SpreadingFactor, TxPowerDbm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn any_sf() -> impl Strategy<Value = SpreadingFactor> {
    (7u8..=12).prop_map(|v| SpreadingFactor::from_u8(v).unwrap())
}

fn any_cr() -> impl Strategy<Value = CodingRate> {
    prop_oneof![
        Just(CodingRate::Cr4_5),
        Just(CodingRate::Cr4_6),
        Just(CodingRate::Cr4_7),
        Just(CodingRate::Cr4_8),
    ]
}

proptest! {
    #[test]
    fn toa_positive_and_finite(sf in any_sf(), cr in any_cr(), len in 0usize..=255) {
        let t = ToaParams::new(sf, Bandwidth::Bw125, cr).time_on_air_s(len).unwrap();
        prop_assert!(t.is_finite());
        prop_assert!(t > 0.0);
        // Sanity bound: even 255 bytes at SF12 stays under 20 s.
        prop_assert!(t < 20.0);
    }

    #[test]
    fn toa_weakly_monotone_in_payload(sf in any_sf(), cr in any_cr(), len in 0usize..255) {
        let p = ToaParams::new(sf, Bandwidth::Bw125, cr);
        prop_assert!(p.time_on_air_s(len + 1).unwrap() >= p.time_on_air_s(len).unwrap());
    }

    #[test]
    fn toa_strictly_monotone_in_sf(cr in any_cr(), len in 0usize..=255) {
        let mut last = 0.0;
        for sf in SpreadingFactor::ALL {
            let t = ToaParams::new(sf, Bandwidth::Bw125, cr).time_on_air_s(len).unwrap();
            prop_assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn path_loss_monotone(d1 in 10.0f64..5_000.0, delta in 1.0f64..5_000.0, beta in 2.1f64..4.5) {
        for model in [
            PathLossModel::friis_exponent(903e6),
            PathLossModel::log_distance(903e6, 100.0),
        ] {
            let near = model.loss_db(d1, beta);
            let far = model.loss_db(d1 + delta, beta);
            prop_assert!(far >= near);
            prop_assert!(model.attenuation(d1, beta) > 0.0);
            prop_assert!(model.attenuation(d1, beta) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn rayleigh_gain_positive(seed in any::<u64>()) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let g = Fading::Rayleigh.sample_power_gain(&mut rng);
        prop_assert!(g > 0.0);
        prop_assert!(g.is_finite());
    }

    #[test]
    fn survival_is_probability(threshold in -10.0f64..100.0) {
        for fading in [Fading::None, Fading::Rayleigh] {
            let s = fading.survival(threshold);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn min_feasible_sf_respects_sensitivity(rx in -150.0f64..-100.0) {
        if let Some(sf) = min_feasible_sf(rx, Bandwidth::Bw125, 6.0, 0.0) {
            prop_assert!(rx >= sf.sensitivity_dbm(Bandwidth::Bw125, 6.0));
            if let Some(faster) = sf.faster() {
                prop_assert!(rx < faster.sensitivity_dbm(Bandwidth::Bw125, 6.0));
            }
        } else {
            prop_assert!(rx < SpreadingFactor::Sf12.sensitivity_dbm(Bandwidth::Bw125, 6.0));
        }
    }

    #[test]
    fn rx_power_monotone_in_tx(tx in 2.0f64..14.0, loss in 60.0f64..160.0) {
        let low = received_power_dbm(tx, loss, 1.0);
        let high = received_power_dbm(tx + 1.0, loss, 1.0);
        prop_assert!(high > low);
    }

    #[test]
    fn cycle_energy_monotone_in_tp_and_toa(
        tp in 2.0f64..14.0,
        toa in 0.01f64..3.0,
        interval in 10.0f64..3600.0,
    ) {
        let m = lora_phy::energy::RadioEnergyModel::sx1276();
        let base = m.cycle_energy_j(TxPowerDbm::new(tp), toa, interval);
        prop_assert!(base > 0.0);
        let more_power = m.cycle_energy_j(TxPowerDbm::new((tp + 2.0).min(14.0)), toa, interval);
        prop_assert!(more_power >= base);
        let longer = m.cycle_energy_j(TxPowerDbm::new(tp), toa * 1.5, interval);
        prop_assert!(longer >= base);
    }
}

#[test]
fn noise_floor_is_bandwidth_sensitive() {
    let n125 = noise_floor_dbm(Bandwidth::Bw125, 6.0);
    let n500 = noise_floor_dbm(Bandwidth::Bw500, 6.0);
    assert!((n500 - n125 - 10.0 * 4f64.log10()).abs() < 1e-9);
}
