//! Property-based tests for the MAC layer.

use lora_mac::aloha::{duty_cycle, AlohaSchedule};
use lora_mac::collision::{collides, AirInterval, InterSfPolicy};
use lora_mac::crypto::{Aes128, Cmac};
use lora_mac::frame::UplinkFrame;
use lora_mac::DemodulatorBank;
use lora_phy::SpreadingFactor;
use proptest::prelude::*;

fn any_sf() -> impl Strategy<Value = SpreadingFactor> {
    (7u8..=12).prop_map(|v| SpreadingFactor::from_u8(v).unwrap())
}

proptest! {
    #[test]
    fn frame_round_trips(
        dev_addr in any::<u32>(),
        f_cnt in any::<u16>(),
        f_port in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        key in any::<[u8; 16]>(),
    ) {
        let frame = UplinkFrame::new(dev_addr, f_cnt, f_port, payload);
        let encoded = frame.encode(&key);
        prop_assert_eq!(encoded.len(), frame.phy_payload_len());
        let decoded = UplinkFrame::decode(&encoded, &key).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn any_single_byte_corruption_is_caught(
        payload in proptest::collection::vec(any::<u8>(), 1..32),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let key = [0x5a; 16];
        let frame = UplinkFrame::new(0xcafe, 1, 1, payload);
        let mut encoded = frame.encode(&key);
        let pos = pos_seed % encoded.len();
        encoded[pos] ^= flip;
        prop_assert!(UplinkFrame::decode(&encoded, &key).is_err());
    }

    #[test]
    fn aes_is_a_permutation(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        let cipher = Aes128::new(&key);
        if a != b {
            prop_assert_ne!(cipher.encrypt(a), cipher.encrypt(b));
        }
        prop_assert_ne!(cipher.encrypt(a), a); // no fixed point is astronomically likely
    }

    #[test]
    fn cmac_is_deterministic(key in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..80)) {
        let c = Cmac::new(&key);
        prop_assert_eq!(c.tag(&msg), c.tag(&msg));
    }

    #[test]
    fn overlap_is_symmetric(s1 in 0.0f64..100.0, d1 in 0.001f64..10.0, s2 in 0.0f64..100.0, d2 in 0.001f64..10.0) {
        let a = AirInterval::new(s1, s1 + d1);
        let b = AirInterval::new(s2, s2 + d2);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn collision_requires_all_three_conditions(
        sf_a in any_sf(), sf_b in any_sf(),
        ch_a in 0usize..8, ch_b in 0usize..8,
        s1 in 0.0f64..10.0, s2 in 0.0f64..10.0,
    ) {
        let a = AirInterval::new(s1, s1 + 1.0);
        let b = AirInterval::new(s2, s2 + 1.0);
        let hit = collides(sf_a, ch_a, &a, sf_b, ch_b, &b);
        if hit {
            prop_assert_eq!(sf_a, sf_b);
            prop_assert_eq!(ch_a, ch_b);
            prop_assert!(a.overlaps(&b));
        }
    }

    #[test]
    fn interference_weight_in_unit_range(v in any_sf(), i in any_sf()) {
        for policy in [InterSfPolicy::Orthogonal, InterSfPolicy::ImperfectOrthogonality] {
            let w = policy.interference_weight(v, i);
            prop_assert!((0.0..=1.0).contains(&w), "{policy:?} {v} {i}: {w}");
        }
    }

    #[test]
    fn demod_bank_never_exceeds_capacity(
        capacity in 1usize..=8,
        receptions in proptest::collection::vec((0.0f64..100.0, 0.001f64..5.0), 1..200),
    ) {
        let mut sorted = receptions;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut bank = DemodulatorBank::with_capacity(capacity);
        for (start, dur) in &sorted {
            let granted_before = bank.busy_at(*start);
            prop_assert!(granted_before <= capacity);
            bank.try_acquire(*start, start + dur);
            prop_assert!(bank.busy_at(*start) <= capacity);
        }
    }

    #[test]
    fn schedule_times_are_increasing(interval in 0.1f64..1000.0, phase in 0.0f64..1000.0, n in 0u64..100) {
        let s = AlohaSchedule::new(interval, phase).unwrap();
        prop_assert!(s.tx_start_s(n + 1) > s.tx_start_s(n));
        prop_assert!((0.0..=1.0).contains(&duty_cycle(0.07, interval)));
    }
}
