//! Runs one scenario through the three oracles.
//!
//! * **Analytical model** (`lora_model::NetworkModel`, paper Eq. 5–20):
//!   per-device energy efficiency for the allocation under test.
//! * **Discrete-event simulator** (`lora_sim::Simulation`): measured
//!   per-device EE, averaged over repetitions with the exact seed schedule
//!   the bench harness uses (`seed ^ (rep·0x9e37_79b9 + 1)`, folded in
//!   repetition order — byte-identical for every worker count).
//! * **Exhaustive search** (`ef_lora::ExhaustiveSearch`): the true
//!   max-min optimum over a restricted candidate set, for instances small
//!   enough to enumerate.
//!
//! Alongside the cross-oracle statistics, every simulated repetition is
//! checked against hard accounting invariants (reception conservation,
//! energy bookkeeping, duty-cycle compliance, outage attribution); any
//! violation is recorded verbatim so the gates can fail loudly.

use serde::Serialize;

use ef_lora::{AllocationContext, EfLora, ExhaustiveSearch, LegacyLora, Strategy};
use lora_model::validation::{agreement, Agreement};
use lora_model::NetworkModel;
use lora_phy::toa::ToaParams;
use lora_phy::{Bandwidth, TxConfig};
use lora_sim::{SimConfig, SimReport, Simulation, Topology, Traffic};

use crate::scenario::Scenario;

/// Cross-oracle statistics for one (scenario, strategy) pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StrategyConformance {
    /// Strategy name.
    pub strategy: String,
    /// Model-predicted minimum per-device EE, bits/mJ.
    pub model_min_ee: f64,
    /// Simulator-measured minimum per-device EE (rep-averaged), bits/mJ.
    pub sim_min_ee: f64,
    /// Model↔simulator per-device agreement (Pearson, Spearman, bias).
    pub agreement: Agreement,
    /// Hard-invariant violations observed across all repetitions.
    pub invariant_violations: Vec<String>,
}

/// Greedy-vs-optimal statistics for an enumerable scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExhaustiveConformance {
    /// The enumerated max-min optimum (restricted candidate set), bits/mJ.
    pub optimal_min_ee: f64,
    /// The greedy EF-LoRa minimum EE under the model, bits/mJ.
    pub greedy_min_ee: f64,
    /// `greedy / optimal`; may exceed 1 because the greedy searches the
    /// full configuration space while the oracle's is restricted.
    pub ratio: f64,
}

/// Everything the oracles produced for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioRecord {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// One entry per strategy under test.
    pub strategies: Vec<StrategyConformance>,
    /// Present iff `scenario.exhaustive`.
    pub exhaustive: Option<ExhaustiveConformance>,
}

/// Per-device time-on-air for an allocation under a configuration.
fn toa_per_device(config: &SimConfig, alloc: &[TxConfig]) -> Vec<f64> {
    alloc
        .iter()
        .map(|cfg| {
            ToaParams::new(cfg.sf, Bandwidth::Bw125, config.coding_rate)
                .time_on_air_s(config.phy_payload_len())
                .expect("validated payload")
        })
        .collect()
}

/// Checks the hard accounting invariants of one simulation report.
///
/// These hold *exactly* (up to float rounding) by construction of the
/// simulator, so any message returned here is a real conservation bug:
///
/// 1. per device: `delivered ≤ attempts`;
/// 2. per gateway: every (attempt, gateway) pair resolves to exactly one
///    of {decoded, demod_refused, sinr_failure, below_sensitivity,
///    outage_drop, half_duplex_drop, jammed_drop, backhaul_drop} — the
///    eight counters sum to the network-wide attempt count;
/// 3. network: `Σ decoded = frames_delivered + duplicate_copies` and
///    `frames_delivered = Σ delivered`;
/// 4. fault attribution: a gateway accrues `outage_drops` only when a
///    static outage or a churn process targets it, `jammed_drops` only
///    when a jammer or jam burst is configured, and `backhaul_drops` only
///    when its own backhaul link has a positive drop probability — a
///    backhaul loss consumes a PHY-decoded copy, so it can never
///    double-count against a PHY-level drop fate;
/// 5. energy bookkeeping: consumed energy equals
///    `attempts·(E_overhead + E_tx(TP, ToA) + E_listen) + P_sleep·(T −
///    attempts·ToA)` — `E_listen` the class-A RX1+RX2 listening energy
///    per attempt for confirmed traffic, 0 otherwise — and the reported
///    EE equals `delivered·L / (1000·energy)`. Charged per *attempt*, so
///    a retransmission inside an outage-spanning retry window pays
///    exactly one overhead + TX + listen quantum, never two;
/// 6. duty-cycle compliance: measured airtime never exceeds the offered
///    duty cycle's budget by more than one frame (confirmed traffic may
///    retransmit up to `max_attempts` times per cycle, scaling the
///    budget accordingly).
pub fn check_invariants(
    config: &SimConfig,
    alloc: &[TxConfig],
    report: &SimReport,
    rep: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |msg: String| violations.push(format!("rep {rep}: {msg}"));

    let toa = toa_per_device(config, alloc);
    let total_attempts: u64 = report.devices.iter().map(|d| u64::from(d.attempts)).sum();
    let total_delivered: u64 = report.devices.iter().map(|d| u64::from(d.delivered)).sum();

    // (1) per-device sanity.
    for (i, d) in report.devices.iter().enumerate() {
        if d.delivered > d.attempts {
            fail(format!(
                "device {i}: delivered {} > attempts {}",
                d.delivered, d.attempts
            ));
        }
        if !(d.energy_j.is_finite() && d.energy_j >= 0.0) {
            fail(format!(
                "device {i}: energy {} is not a finite non-negative value",
                d.energy_j
            ));
        }
    }

    // (2) per-gateway reception conservation over all eight fates.
    for (k, g) in report.gateways.iter().enumerate() {
        let resolved = g.decoded
            + g.demod_refused
            + g.sinr_failures
            + g.below_sensitivity
            + g.outage_drops
            + g.half_duplex_drops
            + g.jammed_drops
            + g.backhaul_drops;
        if resolved != total_attempts {
            fail(format!(
                "gateway {k}: decoded {} + refused {} + sinr {} + below-sens {} + outage {} \
                 + half-duplex {} + jammed {} + backhaul {} = {resolved} ≠ attempts \
                 {total_attempts}",
                g.decoded,
                g.demod_refused,
                g.sinr_failures,
                g.below_sensitivity,
                g.outage_drops,
                g.half_duplex_drops,
                g.jammed_drops,
                g.backhaul_drops,
            ));
        }
    }

    // (3) de-duplication conservation.
    let total_decoded: u64 = report.gateways.iter().map(|g| g.decoded).sum();
    if total_decoded != report.frames_delivered + report.duplicate_copies {
        fail(format!(
            "Σ decoded {total_decoded} ≠ frames_delivered {} + duplicates {}",
            report.frames_delivered, report.duplicate_copies
        ));
    }
    if report.frames_delivered != total_delivered {
        fail(format!(
            "frames_delivered {} ≠ Σ per-device delivered {total_delivered}",
            report.frames_delivered
        ));
    }

    // (4) fault attribution: every fault-class counter needs a configured
    // cause. Backhaul drops in particular consume PHY-decoded copies, so
    // a spurious count here would double-book against a PHY fate.
    let faults = config.faults.as_ref();
    let has_jam = faults.is_some_and(|f| !f.jammers.is_empty() || !f.jam_bursts.is_empty());
    for (k, g) in report.gateways.iter().enumerate() {
        let has_outage = config.outages.iter().any(|o| o.gateway == k)
            || faults.is_some_and(|f| f.churn.iter().any(|c| c.gateway == k));
        if !has_outage && g.outage_drops > 0 {
            fail(format!(
                "gateway {k}: {} outage drops without a configured outage",
                g.outage_drops
            ));
        }
        if !has_jam && g.jammed_drops > 0 {
            fail(format!(
                "gateway {k}: {} jammed drops without a configured jammer",
                g.jammed_drops
            ));
        }
        let has_lossy_backhaul = faults.is_some_and(|f| {
            f.backhaul
                .iter()
                .any(|b| b.gateway == k && b.drop_prob > 0.0)
        });
        if !has_lossy_backhaul && g.backhaul_drops > 0 {
            fail(format!(
                "gateway {k}: {} backhaul drops without a lossy backhaul link",
                g.backhaul_drops
            ));
        }
    }

    // (5) energy bookkeeping — exact for both traffic kinds. Each attempt
    // (first transmission or retry, delivered or lost to any fate) pays
    // one overhead + TX + listening quantum, so a retry whose window
    // spans an outage is charged exactly once, never twice.
    let payload_bits = config.payload_bits();
    let listen_j = config
        .confirmed
        .map_or(0.0, |c| c.class_a.listening_energy_j());
    for (i, d) in report.devices.iter().enumerate() {
        let airtime = f64::from(d.attempts) * toa[i];
        let expected = f64::from(d.attempts)
            * (config.energy.overhead_energy_j()
                + config.energy.tx_energy_j(alloc[i].tp, toa[i])
                + listen_j)
            + config.energy.sleep_power_w() * (report.duration_s - airtime).max(0.0);
        if (d.energy_j - expected).abs() > 1e-6 * expected.max(1e-12) {
            fail(format!(
                "device {i}: energy {} J ≠ expected {expected} J from {} attempts",
                d.energy_j, d.attempts
            ));
        }
        let expected_ee = if d.energy_j > 0.0 {
            f64::from(d.delivered) * payload_bits / (d.energy_j * 1_000.0)
        } else {
            0.0
        };
        if (d.ee_bits_per_mj - expected_ee).abs() > 1e-9 * expected_ee.max(1e-12) {
            fail(format!(
                "device {i}: EE {} bits/mJ ≠ delivered·L/energy = {expected_ee}",
                d.ee_bits_per_mj
            ));
        }
    }

    // (6) duty-cycle compliance: the traffic generator must never offer
    // more airtime than the regime's duty budget plus one frame of
    // schedule-boundary slack.
    let retry_factor = config.confirmed.map_or(1.0, |c| f64::from(c.max_attempts));
    for (i, d) in report.devices.iter().enumerate() {
        let offered_duty = match config.traffic {
            Traffic::DutyCycleTarget { duty } => duty,
            Traffic::Periodic => toa[i] / config.interval_of(i),
        };
        let airtime = f64::from(d.attempts) * toa[i];
        let budget = retry_factor * offered_duty * report.duration_s + toa[i] + 1e-9;
        if airtime > budget {
            fail(format!(
                "device {i}: airtime {airtime} s exceeds duty budget {budget} s \
                 (duty {offered_duty}, {} attempts)",
                d.attempts
            ));
        }
    }

    violations
}

/// Per-repetition simulator output the conformance aggregation needs.
struct RepOutcome {
    ee: Vec<f64>,
    violations: Vec<String>,
}

/// Runs the simulator oracle for one allocation: `reps` repetitions with
/// the bench harness's seed schedule, rep-averaged per-device EE plus all
/// invariant violations. Repetitions fan out over `threads` workers and
/// fold in index order, so the result is worker-count-invariant.
///
/// Public so the test suite can differentially validate this runner
/// against `ef_lora_bench::harness::run_strategy` — the pipeline every
/// figure is produced with — on identical inputs.
pub fn simulator_oracle(
    config: &SimConfig,
    topology: &Topology,
    alloc: &[TxConfig],
    reps: u64,
    threads: usize,
) -> (Vec<f64>, Vec<String>) {
    let n = topology.device_count();
    let rep_seeds: Vec<u64> = (0..reps)
        .map(|rep| config.seed ^ (rep.wrapping_mul(0x9e37_79b9) + 1))
        .collect();
    let simulate = |rep: usize| -> RepOutcome {
        let mut cfg = config.clone();
        cfg.seed = rep_seeds[rep];
        let report = Simulation::new(cfg.clone(), topology.clone(), alloc.to_vec())
            .expect("validated allocation")
            .run();
        RepOutcome {
            ee: report.devices.iter().map(|d| d.ee_bits_per_mj).collect(),
            violations: check_invariants(&cfg, alloc, &report, rep as u64),
        }
    };

    let rep_count = usize::try_from(reps).expect("repetition count fits in usize");
    let mut ee_acc = vec![0.0f64; n];
    let mut violations = Vec::new();
    for outcome in lora_parallel::par_map_indexed(rep_count, threads, simulate) {
        for (acc, ee) in ee_acc.iter_mut().zip(&outcome.ee) {
            *acc += ee;
        }
        violations.extend(outcome.violations);
    }
    for v in &mut ee_acc {
        *v /= reps as f64;
    }
    (ee_acc, violations)
}

/// Runs one scenario through all applicable oracles.
///
/// Two strategies are cross-validated — the greedy EF-LoRa allocator the
/// paper proposes and the legacy-LoRa baseline (whose skewed EE spread
/// exercises the agreement statistics harder than EF-LoRa's flattened
/// max-min profile) — plus, on enumerable instances, the exhaustive
/// optimum.
pub fn run_scenario(scenario: &Scenario, threads: usize) -> ScenarioRecord {
    let config = scenario.sim_config();
    let topology = Topology::disc(
        scenario.n_devices,
        scenario.n_gateways,
        scenario.radius_m,
        &config,
        scenario.seed,
    );
    let model = NetworkModel::new(&config, &topology);
    let ctx = AllocationContext::new(&config, &topology, &model);

    let ef = EfLora::default();
    let legacy = LegacyLora::default();
    let strategies: [&dyn Strategy; 2] = [&ef, &legacy];

    let mut records = Vec::new();
    for strategy in strategies {
        let alloc = strategy.allocate(&ctx).expect("allocation must succeed");
        let model_ee = model.evaluate(alloc.as_slice());
        let (sim_ee, invariant_violations) =
            simulator_oracle(&config, &topology, alloc.as_slice(), scenario.reps, threads);
        records.push(StrategyConformance {
            strategy: strategy.name().to_string(),
            model_min_ee: model_ee.iter().copied().fold(f64::INFINITY, f64::min),
            sim_min_ee: sim_ee.iter().copied().fold(f64::INFINITY, f64::min),
            agreement: agreement(&model_ee, &sim_ee),
            invariant_violations,
        });
    }

    let exhaustive = scenario.exhaustive.then(|| {
        let optimal = ExhaustiveSearch::new()
            .allocate(&ctx)
            .expect("enumerable instance");
        let optimal_min_ee = model
            .evaluate(optimal.as_slice())
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        // The EF-LoRa record above was computed for this same context;
        // its model_min_ee is the greedy side of the comparison.
        let greedy_min_ee = records[0].model_min_ee;
        ExhaustiveConformance {
            optimal_min_ee,
            greedy_min_ee,
            ratio: greedy_min_ee / optimal_min_ee.max(1e-12),
        }
    });

    ScenarioRecord {
        scenario: scenario.clone(),
        strategies: records,
        exhaustive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Profile, Regime};

    fn tiny_scenario() -> Scenario {
        Scenario {
            id: "unit-tiny".into(),
            n_devices: 8,
            n_gateways: 1,
            radius_m: 3_000.0,
            seed: 42,
            regime: Regime::Periodic { interval_s: 600.0 },
            outage: None,
            duration_s: 1_800.0,
            reps: 2,
            exhaustive: false,
            agreement_gated: false,
        }
    }

    #[test]
    fn scenario_record_has_both_strategies() {
        let record = run_scenario(&tiny_scenario(), 1);
        assert_eq!(record.strategies.len(), 2);
        assert_eq!(record.strategies[0].strategy, "EF-LoRa");
        assert!(record
            .strategies
            .iter()
            .all(|s| s.invariant_violations.is_empty()));
        assert!(record.exhaustive.is_none());
    }

    #[test]
    fn run_scenario_is_thread_invariant() {
        let scenario = tiny_scenario();
        let one = run_scenario(&scenario, 1);
        let four = run_scenario(&scenario, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn exhaustive_oracle_runs_on_enumerable_instances() {
        let scenario = crate::scenario::matrix(Profile::Smoke)
            .into_iter()
            .find(|s| s.exhaustive)
            .unwrap();
        let record = run_scenario(&scenario, 1);
        let ex = record.exhaustive.expect("exhaustive scenario");
        assert!(ex.optimal_min_ee > 0.0);
        assert!(ex.ratio > 0.0);
    }

    #[test]
    fn confirmed_retry_energy_is_charged_once_per_attempt_across_outages() {
        // Satellite fix: an outage spanning the retry window must not
        // double-charge (or skip) the retransmission energy. The outage
        // blacks out the only gateway mid-run, so every cycle in the
        // window burns its full retry budget; the per-attempt energy
        // identity in `check_invariants` must still hold exactly.
        use lora_sim::ConfirmedTraffic;
        let mut config = SimConfig::builder()
            .seed(7)
            .duration_s(3_600.0)
            .report_interval_s(600.0)
            .confirmed(ConfirmedTraffic::default())
            .outage(lora_sim::GatewayOutage {
                gateway: 0,
                from_s: 900.0,
                to_s: 2_700.0,
            })
            .build();
        config.fading = lora_phy::Fading::None;
        let topology = Topology::disc(6, 1, 2_000.0, &config, 7);
        let alloc = vec![TxConfig::default(); 6];
        let report = Simulation::new(config.clone(), topology, alloc.clone())
            .unwrap()
            .run();

        // The outage must actually force retransmissions: more attempts
        // than cycles, and losses despite the quiet channel.
        let attempts: u64 = report.devices.iter().map(|d| u64::from(d.attempts)).sum();
        let delivered: u64 = report.devices.iter().map(|d| u64::from(d.delivered)).sum();
        assert!(report.gateways[0].outage_drops > 0, "outage must bite");
        assert!(attempts > delivered, "lost frames must trigger retries");

        let violations = check_invariants(&config, &alloc, &report, 0);
        assert!(violations.is_empty(), "{violations:?}");

        // Spot-check the identity by hand for the worst-hit device.
        let toa = toa_per_device(&config, &alloc);
        let conf = config.confirmed.unwrap();
        for (i, d) in report.devices.iter().enumerate() {
            let expected = f64::from(d.attempts)
                * (config.energy.overhead_energy_j()
                    + config.energy.tx_energy_j(alloc[i].tp, toa[i])
                    + conf.class_a.listening_energy_j())
                + config.energy.sleep_power_w()
                    * (report.duration_s - f64::from(d.attempts) * toa[i]);
            assert!(
                (d.energy_j - expected).abs() <= 1e-9 * expected,
                "device {i}: {} J vs {expected} J",
                d.energy_j
            );
        }
    }

    #[test]
    fn invariant_checker_accepts_faulted_reports_and_flags_phantom_fault_drops() {
        use lora_sim::{BackhaulLink, FaultConfig, GatewayChurn, JamBurst};
        let mut builder = SimConfig::builder();
        builder.seed(5).duration_s(2_400.0).report_interval_s(600.0);
        builder.faults(FaultConfig {
            churn: vec![GatewayChurn {
                gateway: 0,
                mtbf_s: 500.0,
                mttr_s: 400.0,
            }],
            jam_bursts: vec![JamBurst {
                channel: 0,
                from_s: 600.0,
                to_s: 1_800.0,
                power_mw: 1.0,
            }],
            backhaul: vec![BackhaulLink {
                gateway: 1,
                drop_prob: 0.5,
                latency_s: 0.01,
            }],
            ..FaultConfig::default()
        });
        let config = builder.try_build().unwrap();
        let topology = Topology::disc(10, 2, 3_000.0, &config, 5);
        let alloc = vec![TxConfig::default(); 10];
        let mut report = Simulation::new(config.clone(), topology, alloc.clone())
            .unwrap()
            .run();
        let violations = check_invariants(&config, &alloc, &report, 0);
        assert!(violations.is_empty(), "{violations:?}");

        // A fault-class drop without a configured cause is an attribution
        // bug: credit each new counter on the *wrong* gateway and the
        // checker must object.
        report.gateways[1].outage_drops += 1;
        report.gateways[0].backhaul_drops += 1;
        let violations = check_invariants(&config, &alloc, &report, 0);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("outage drops without")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("backhaul drops without")),
            "{violations:?}"
        );
    }

    #[test]
    fn invariant_checker_flags_corrupted_reports() {
        let scenario = tiny_scenario();
        let config = scenario.sim_config();
        let topology = Topology::disc(8, 1, 3_000.0, &config, 42);
        let alloc = vec![TxConfig::default(); 8];
        let mut report = Simulation::new(config.clone(), topology, alloc.clone())
            .unwrap()
            .run();
        assert!(check_invariants(&config, &alloc, &report, 0).is_empty());

        // Corrupt the accounting in three independent ways.
        report.devices[0].energy_j *= 2.0;
        report.gateways[0].decoded += 1;
        report.frames_delivered += 5;
        let violations = check_invariants(&config, &alloc, &report, 0);
        assert!(violations.len() >= 3, "{violations:?}");
    }
}
