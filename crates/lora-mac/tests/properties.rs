//! Property-based tests for the MAC layer.

use lora_mac::aloha::duty_cycle;
use lora_mac::collision::InterSfPolicy;
use lora_mac::DemodulatorBank;
use lora_phy::SpreadingFactor;
use proptest::prelude::*;

fn any_sf() -> impl Strategy<Value = SpreadingFactor> {
    (7u8..=12).prop_map(|v| SpreadingFactor::from_u8(v).unwrap())
}

proptest! {
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

    /// A bank grants a reception exactly when fewer than `capacity`
    /// earlier receptions are still in the air at its start.
    #[test]
    fn demod_bank_grants_exactly_when_a_path_is_free(
        capacity in 1usize..=8,
        receptions in proptest::collection::vec((0u8..40, 1u8..12), 1..200),
    ) {
        // Quarter-second grid: equal starts and ends are common.
        let mut sorted: Vec<(f64, f64)> = receptions
            .iter()
            .map(|&(start, len)| (f64::from(start) / 4.0, f64::from(len) / 4.0))
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut bank = DemodulatorBank::with_capacity(capacity);
        let mut held: Vec<f64> = Vec::new();
        for (start, len) in sorted {
            let busy = held.iter().filter(|&&end| end > start).count();
            let granted = bank.try_acquire(start, start + len);
            prop_assert_eq!(granted, busy < capacity);
            if granted {
                held.push(start + len);
            }
            prop_assert_eq!(bank.busy_at(start), busy + usize::from(granted));
        }
    }

    #[test]
    fn duty_cycle_is_a_fraction(interval in 0.1f64..1000.0) {
        prop_assert!((0.0..=1.0).contains(&duty_cycle(0.07, interval)));
    }
}
