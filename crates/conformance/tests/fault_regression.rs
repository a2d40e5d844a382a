//! Fault-engine regression guards.
//!
//! The fault-injection engine must be invisible when disabled: a config
//! with no fault processes produces byte-identical JSON reports to the
//! pre-fault-engine simulator. The golden snapshot below was taken from
//! the simulator *before* the fault engine existed and pins that
//! behaviour permanently.
//!
//! A second snapshot pins a run that reaches every reception fate
//! (capture and SINR failures, capacity refusals, outages, half-duplex
//! deafness, jamming, backhaul loss and duplicate copies), so a change to
//! the event order or to a threshold test cannot hide behind a run that
//! never exercises it.

use conformance::golden::check_or_update;
use ef_lora::EfLora;
use ef_lora_bench::harness::{run_strategy, Scale};
use lora_mac::collision::InterSfPolicy;
use lora_model::NetworkModel;
use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::trace::CountingSink;
use lora_sim::{
    BackhaulLink, ConfirmedTraffic, FaultConfig, GatewayChurn, GatewayOutage, GatewayStats,
    JamBurst, SimConfig, SimReport, Simulation, Topology,
};
use serde::Serialize;

/// A deterministic mixed-SF allocation (no `rand` needed).
fn spread_alloc(n: usize) -> Vec<TxConfig> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0xbf58_476d_1ce4_e5b9);
            let sf = SpreadingFactor::from_u8(7 + (h % 6) as u8).unwrap();
            let tp = TxPowerDbm::new(2.0 + 2.0 * ((h >> 8) % 7) as f64);
            TxConfig::new(sf, tp, ((h >> 16) % 8) as usize)
        })
        .collect()
}

/// The reference scenario: nothing fault-related configured.
fn no_fault_report() -> lora_sim::SimReport {
    let config = SimConfig::builder()
        .seed(41)
        .duration_s(3_600.0)
        .report_interval_s(600.0)
        .build();
    let topo = Topology::disc(24, 2, 4_000.0, &config, 41);
    Simulation::new(config, topo, spread_alloc(24))
        .unwrap()
        .run()
}

#[test]
fn disabled_faults_match_pre_fault_engine_output() {
    let report = no_fault_report();
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    check_or_update("no_fault_sim_report", &json).unwrap();
}

/// The every-fate run's trace counts and report, as pinned.
#[derive(Serialize)]
struct EveryFate {
    counts: CountingSink,
    report: SimReport,
}

/// A crowded deployment that reaches every reception fate: two demodulator
/// paths per gateway, confirmed traffic with three attempts, imperfect SF
/// orthogonality, one outage window, one jam burst and one lossy, delayed
/// backhaul link.
fn every_fate_run() -> (SimReport, CountingSink) {
    let mut builder = SimConfig::builder();
    builder
        .seed(53)
        .duration_s(1_800.0)
        .report_interval_s(60.0)
        .demod_capacity(2)
        .inter_sf(InterSfPolicy::ImperfectOrthogonality)
        .confirmed(ConfirmedTraffic {
            max_attempts: 3,
            ..ConfirmedTraffic::default()
        })
        .outage(GatewayOutage {
            gateway: 0,
            from_s: 300.0,
            to_s: 600.0,
        })
        .faults(FaultConfig {
            jam_bursts: vec![JamBurst {
                channel: 2,
                from_s: 400.0,
                to_s: 1_000.0,
                power_mw: 1e-10,
            }],
            backhaul: vec![BackhaulLink {
                gateway: 1,
                drop_prob: 0.3,
                latency_s: 0.05,
            }],
            ..FaultConfig::default()
        });
    let config = builder.try_build().unwrap();
    let topo = Topology::disc(150, 3, 3_000.0, &config, 53);
    let sim = Simulation::new(config, topo, spread_alloc(150)).unwrap();
    let mut counts = CountingSink::default();
    let report = sim.run_with_trace(&mut counts);
    (report, counts)
}

#[test]
fn every_reception_fate_matches_golden() {
    let (report, counts) = every_fate_run();
    // Each fate must occur, so the snapshot keeps covering every branch
    // of the reception decision if the configuration is ever edited.
    let total = |field: fn(&GatewayStats) -> u64| report.gateways.iter().map(field).sum();
    let reached: [(&str, u64); 9] = [
        ("decoded", total(|g| g.decoded)),
        ("demod_refused", total(|g| g.demod_refused)),
        ("sinr_failures", total(|g| g.sinr_failures)),
        ("below_sensitivity", total(|g| g.below_sensitivity)),
        ("outage_drops", total(|g| g.outage_drops)),
        ("half_duplex_drops", total(|g| g.half_duplex_drops)),
        ("jammed_drops", total(|g| g.jammed_drops)),
        ("backhaul_drops", total(|g| g.backhaul_drops)),
        ("duplicate_copies", report.duplicate_copies),
    ];
    for (fate, n) in reached {
        assert!(n > 0, "the every-fate run no longer reaches {fate}");
    }
    // 1 800 s of 60 s reports is 30 cycles: more attempts are retries.
    let retried = report.devices.iter().any(|d| d.attempts > 30);
    assert!(retried, "confirmed traffic must retransmit");
    let json =
        serde_json::to_string_pretty(&EveryFate { counts, report }).expect("report serialises");
    check_or_update("sim_every_fate", &json).unwrap();
}

#[test]
fn faulted_runs_are_thread_invariant() {
    // Same guarantee `candidate_scan_is_thread_invariant` gives the
    // allocator, extended to the figure pipeline under active faults:
    // the fault processes are compiled from the config seed before any
    // repetition is scheduled, and backhaul verdicts are stateless
    // hashes, so worker count must not move a single byte.
    let mut builder = SimConfig::builder();
    builder
        .seed(29)
        .duration_s(2_400.0)
        .report_interval_s(600.0);
    builder.faults(FaultConfig {
        churn: vec![GatewayChurn {
            gateway: 0,
            mtbf_s: 500.0,
            mttr_s: 300.0,
        }],
        jam_bursts: vec![JamBurst {
            channel: 2,
            from_s: 400.0,
            to_s: 1_600.0,
            power_mw: 1e-6,
        }],
        backhaul: vec![BackhaulLink {
            gateway: 1,
            drop_prob: 0.4,
            latency_s: 0.02,
        }],
        ..FaultConfig::default()
    });
    let config = builder.try_build().unwrap();
    let topo = Topology::disc(20, 2, 4_000.0, &config, 29);
    let model = NetworkModel::new(&config, &topo);

    let mut scale = Scale::smoke();
    scale.reps = 4;
    scale.duration_s = config.duration_s;
    scale.threads = 1;
    let serial = run_strategy(&config, &topo, &model, &EfLora::default(), &scale);
    scale.threads = 4;
    let parallel = run_strategy(&config, &topo, &model, &EfLora::default(), &scale);
    assert_eq!(
        serial, parallel,
        "faulted figure pipeline must be worker-count invariant"
    );
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "byte-identical JSON across worker counts"
    );

    // And the conformance oracle's own fan-out agrees with itself.
    let alloc = spread_alloc(20);
    let (ee1, v1) = conformance::oracle::simulator_oracle(&config, &topo, &alloc, 3, 1);
    let (ee4, v4) = conformance::oracle::simulator_oracle(&config, &topo, &alloc, 3, 4);
    assert_eq!(ee1, ee4);
    assert!(v1.is_empty() && v4.is_empty(), "{v1:?} {v4:?}");
}
