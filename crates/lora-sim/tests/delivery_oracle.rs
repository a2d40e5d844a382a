//! Differential oracle for the simulator's delivery accounting.
//!
//! The simulator de-duplicates multi-gateway copies with one counter per
//! device, the last frame it delivered. That is exact only because a
//! device's decoded copies arrive in non-decreasing `seq` order. These
//! tests replay every decoded copy of a traced run through a
//! `BTreeSet<(device, seq)>` standing in for the network server, and check
//! the report and the `Delivered` events against it under unconfirmed,
//! confirmed, faulty, self-overlapping and duty-cycle traffic.

use std::collections::{BTreeMap, BTreeSet};

use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::trace::{ReceptionOutcome, TraceEvent, VecSink};
use lora_sim::{
    BackhaulLink, ConfirmedTraffic, FaultConfig, GatewayChurn, SimConfig, Simulation, Topology,
    Traffic,
};
use proptest::prelude::*;

/// The traffic a case runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Unconfirmed,
    Confirmed,
    /// Confirmed traffic over lossy, slow backhaul links and a churning
    /// gateway.
    Faults,
    /// Per-device intervals, about a third of them shorter than a few of
    /// the device's ToA, so those devices overlap their own frames.
    Periodic,
    DutyCycleTarget,
}

#[derive(Debug, Clone)]
struct Case {
    devices: usize,
    gateways: usize,
    radius_m: f64,
    seed: u64,
    mode: Mode,
    max_attempts: u8,
    drop_prob: f64,
    latency_s: f64,
    duty: f64,
}

/// SplitMix64 finaliser: per-device pseudo-random draws without an RNG.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, i)`.
fn unit(seed: u64, i: usize) -> f64 {
    (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

fn simulation(case: &Case) -> Simulation {
    let mut builder = SimConfig::builder();
    builder
        .seed(case.seed)
        .duration_s(1_800.0)
        .report_interval_s(60.0);
    if case.mode != Mode::Unconfirmed {
        builder.confirmed(ConfirmedTraffic {
            max_attempts: case.max_attempts,
            ..ConfirmedTraffic::default()
        });
    }
    match case.mode {
        Mode::Unconfirmed | Mode::Confirmed => {}
        Mode::Faults => {
            builder.faults(FaultConfig {
                churn: vec![GatewayChurn {
                    gateway: case.gateways - 1,
                    mtbf_s: 300.0,
                    mttr_s: 120.0,
                }],
                backhaul: (0..case.gateways)
                    .map(|gateway| BackhaulLink {
                        gateway,
                        drop_prob: case.drop_prob,
                        latency_s: case.latency_s * gateway as f64,
                    })
                    .collect(),
                ..FaultConfig::default()
            });
        }
        Mode::Periodic => {
            builder.duration_s(60.0);
        }
        Mode::DutyCycleTarget => {
            builder
                .duration_s(300.0)
                .traffic(Traffic::DutyCycleTarget { duty: case.duty });
        }
    }
    let mut config = builder.try_build().unwrap();
    let topology = Topology::disc(
        case.devices,
        case.gateways,
        case.radius_m,
        &config,
        case.seed,
    );
    // A few channels only, so that frames also collide.
    let alloc: Vec<TxConfig> = (0..case.devices)
        .map(|i| {
            let h = mix(case.seed ^ 0xa110c, i);
            let sf = SpreadingFactor::from_u8(7 + (h % 6) as u8).unwrap();
            let tp = TxPowerDbm::new(2.0 + 2.0 * ((h >> 8) % 7) as f64);
            TxConfig::new(sf, tp, ((h >> 16) % 3) as usize)
        })
        .collect();
    if case.mode == Mode::Periodic {
        let probe = Simulation::new(config.clone(), topology.clone(), alloc.clone()).unwrap();
        let intervals = (0..case.devices)
            .map(|i| {
                let u = unit(case.seed ^ 0x1e7e, i);
                if mix(case.seed, i).is_multiple_of(3) {
                    probe.time_on_air_s(i) * (0.3 + 1.2 * u)
                } else {
                    5.0 + 25.0 * u
                }
            })
            .collect();
        config.per_device_intervals_s = Some(intervals);
    }
    Simulation::new(config, topology, alloc).unwrap()
}

/// What the oracle counted, beyond the properties it asserts.
struct Replay {
    /// Decoded copies of an already delivered frame.
    repeats: u64,
    /// Frames whose first copy came from a retransmission.
    retry_deliveries: u64,
}

/// Runs `sim` traced and checks its de-duplication against the oracle.
fn replay(sim: &Simulation) -> Result<Replay, TestCaseError> {
    let mut sink = VecSink::default();
    let report = sim.run_with_trace(&mut sink);
    let n = report.devices.len();

    let mut server = BTreeSet::new();
    let mut first_copies = Vec::new();
    let mut first_per_device = vec![0u32; n];
    let mut repeats = 0u64;
    let mut last_decoded: Vec<Option<u32>> = vec![None; n];
    let mut tx_starts: BTreeMap<(usize, u32), u32> = BTreeMap::new();
    let mut delivered = Vec::new();
    let mut retry_deliveries = 0;
    for event in &sink.events {
        match *event {
            TraceEvent::TxStart { device, seq, .. } => {
                *tx_starts.entry((device, seq)).or_default() += 1;
            }
            TraceEvent::Reception {
                t,
                device,
                seq,
                outcome: ReceptionOutcome::Decoded,
                ..
            } => {
                if let Some(previous) = last_decoded[device] {
                    prop_assert!(
                        seq >= previous,
                        "device {device} decoded seq {seq} after seq {previous}"
                    );
                }
                last_decoded[device] = Some(seq);
                if server.insert((device, seq)) {
                    first_copies.push((t.to_bits(), device, seq));
                    first_per_device[device] += 1;
                } else {
                    repeats += 1;
                }
            }
            TraceEvent::Reception { .. } => {}
            TraceEvent::Delivered { t, device, seq } => {
                delivered.push((t.to_bits(), device, seq));
                if tx_starts[&(device, seq)] > 1 {
                    retry_deliveries += 1;
                }
            }
        }
    }

    prop_assert_eq!(report.frames_delivered, first_copies.len() as u64);
    prop_assert_eq!(report.duplicate_copies, repeats);
    for (device, stats) in report.devices.iter().enumerate() {
        prop_assert_eq!(
            stats.delivered,
            first_per_device[device],
            "device {} delivered count",
            device
        );
    }
    prop_assert!(
        delivered == first_copies,
        "the Delivered events ({}) are not the oracle's first copies ({}), in order",
        delivered.len(),
        first_copies.len()
    );
    Ok(Replay {
        repeats,
        retry_deliveries,
    })
}

fn any_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Unconfirmed),
        Just(Mode::Confirmed),
        Just(Mode::Faults),
        Just(Mode::Periodic),
        Just(Mode::DutyCycleTarget),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn delivery_accounting_matches_a_set_of_delivered_frames(
        (devices, gateways, radius_m, seed) in (2usize..=30, 1usize..=3, 1_500.0f64..6_000.0, any::<u64>()),
        mode in any_mode(),
        (max_attempts, drop_prob, latency_s, duty) in (1u8..=8, 0.0f64..0.9, 0.0f64..0.5, 0.005f64..0.2),
    ) {
        let case = Case {
            devices,
            gateways,
            radius_m,
            seed,
            mode,
            max_attempts,
            drop_prob,
            latency_s,
            duty,
        };
        if let Err(e) = replay(&simulation(&case)) {
            return Err(TestCaseError::fail(format!("{case:?}: {e}")));
        }
    }
}

/// A fixed case that exercises both halves of the property: copies via
/// several gateways, and frames first delivered on a retry.
#[test]
fn oracle_sees_duplicates_and_retry_deliveries() {
    let case = Case {
        devices: 24,
        gateways: 3,
        radius_m: 4_000.0,
        seed: 11,
        mode: Mode::Confirmed,
        max_attempts: 8,
        drop_prob: 0.0,
        latency_s: 0.0,
        duty: 0.01,
    };
    let replayed = replay(&simulation(&case)).unwrap_or_else(|e| panic!("{e}"));
    assert!(replayed.repeats > 0, "no copy arrived twice");
    assert!(
        replayed.retry_deliveries > 0,
        "no frame was delivered on a retry"
    );
}
