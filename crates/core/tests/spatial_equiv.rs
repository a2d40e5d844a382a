//! Equivalence battery for the cell-sharded allocator.
//!
//! Pins the ISSUE-level guarantees of `ef_lora::spatial`:
//!
//! * below the dense threshold, [`SpatialEfLora`] is **byte-identical**
//!   to the dense [`EfLora`] — every ordering, fixed-TP setting and seed;
//! * the gridded neighbor-count fast path agrees with the quadratic
//!   all-pairs definition device-for-device;
//! * the sharded pipeline is invariant to the worker count (1 vs 3
//!   and 4);
//! * the sharded answer holds up under the *dense* objective: its
//!   network-minimum EE stays within a bounded factor of the dense
//!   solver's on workloads small enough to run both.

use ef_lora::spatial::SpatialEfLora;
use ef_lora::{fairness, AllocationContext, DeviceOrdering, EfLora, Strategy};
use lora_model::NetworkModel;
use lora_phy::TxPowerDbm;
use lora_sim::{SimConfig, Topology};
use proptest::prelude::*;

fn orderings(seed: u64) -> [DeviceOrdering; 3] {
    [
        DeviceOrdering::DensityFirst,
        DeviceOrdering::Random { seed },
        DeviceOrdering::Index,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn below_threshold_matches_dense_bytes(
        n in 5usize..60,
        gws in 1usize..4,
        seed in any::<u64>(),
        fixed_tp in any::<bool>(),
    ) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, gws, 4_000.0, &config, seed);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        for ordering in orderings(seed) {
            let mut dense = EfLora::default().with_ordering(ordering);
            let mut spatial = SpatialEfLora::default().with_ordering(ordering);
            if fixed_tp {
                dense = dense.with_fixed_tp(TxPowerDbm::new(14.0));
                spatial = spatial.with_fixed_tp(TxPowerDbm::new(14.0));
            }
            let want = dense.allocate(&ctx).unwrap();
            let got = spatial.allocate_with_report(&config, &topo).unwrap();
            prop_assert!(!got.sharded);
            prop_assert_eq!(got.allocation.as_slice(), want.as_slice());
            // The Strategy impl takes the same path.
            let via_strategy = spatial.allocate(&ctx).unwrap();
            prop_assert_eq!(via_strategy.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn gridded_neighbor_counts_match_dense(
        n in 1usize..700,
        seed in any::<u64>(),
        radius in 50.0f64..2_000.0,
    ) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, 1, 3_000.0, &config, seed);
        // The public entry point switches representation at 512 devices;
        // compare the two implementations directly at every size.
        let gridded = lora_spatial::grid::neighbor_counts(&topo, radius);
        let sites = topo.devices();
        let mut dense = vec![0usize; n];
        for i in 0..n {
            for j in i + 1..n {
                if sites[i].position.distance_to(&sites[j].position) <= radius {
                    dense[i] += 1;
                    dense[j] += 1;
                }
            }
        }
        prop_assert_eq!(gridded, dense);
    }

    #[test]
    fn sharded_path_is_thread_invariant(
        n in 150usize..350,
        seed in any::<u64>(),
    ) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, 2, 4_000.0, &config, seed);
        // Force sharding well below the default threshold.
        let base = SpatialEfLora::default()
            .with_dense_threshold(50)
            .with_target_occupancy(40);
        let one = base.clone().with_threads(1).allocate_with_report(&config, &topo).unwrap();
        prop_assert!(one.sharded);
        for threads in [3, 4] {
            let many = base.clone().with_threads(threads).allocate_with_report(&config, &topo).unwrap();
            prop_assert_eq!(one.allocation.as_slice(), many.allocation.as_slice());
            prop_assert_eq!(one.min_ee.to_bits(), many.min_ee.to_bits());
            prop_assert_eq!(one.mean_ee.to_bits(), many.mean_ee.to_bits());
            prop_assert_eq!(one.boundary_reconfigured, many.boundary_reconfigured);
            prop_assert_eq!(one.tail_reconfigured, many.tail_reconfigured);
        }
    }

    #[test]
    fn sharded_quality_tracks_dense(
        n in 150usize..300,
        seed in any::<u64>(),
    ) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, 2, 4_000.0, &config, seed);
        let sharded = SpatialEfLora::default()
            .with_dense_threshold(50)
            .with_target_occupancy(40)
            .allocate_with_report(&config, &topo)
            .unwrap();
        prop_assert!(sharded.sharded);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let dense = EfLora::default().allocate(&ctx).unwrap();
        let dense_min = fairness::min_ee(&model.evaluate(dense.as_slice()));
        let sharded_min = fairness::min_ee(&model.evaluate(sharded.allocation.as_slice()));
        // Locality costs quality: the sharded solver prices distant cells
        // through the mean-field ambient instead of exactly. It must stay
        // within a bounded factor of the dense optimum — and far above
        // the unbalanced seed allocation.
        prop_assert!(
            sharded_min >= 0.4 * dense_min,
            "n {} seed {} sharded {} vs dense {}", n, seed, sharded_min, dense_min
        );
    }
}
