//! The conformance suite: runs the smoke matrix through all three
//! oracles once (shared across tests), then checks gating, determinism,
//! golden snapshots and the negative path.
//!
//! Refresh the pinned snapshots with
//! `EF_LORA_UPDATE_GOLDEN=1 cargo test -p conformance`.

use std::sync::OnceLock;

use conformance::oracle::simulator_oracle;
use conformance::{golden, ConformanceReport, Profile, ScenarioRecord, Tolerances};

/// The smoke-matrix oracle records, computed once on 4 workers and shared
/// by every test in this binary (the matrix is the expensive part; gating
/// and serialization are cheap).
fn records() -> &'static [ScenarioRecord] {
    static RECORDS: OnceLock<Vec<ScenarioRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| conformance::run_matrix_records(Profile::Smoke, 4))
}

#[test]
fn smoke_matrix_passes_default_gates() {
    let report = ConformanceReport::gate("smoke", records().to_vec(), Tolerances::default());
    assert!(
        report.passed,
        "default gates must hold on the smoke matrix:\n{:#?}",
        report.violations
    );
    assert_eq!(report.scenarios.len(), 19);
    assert!(report.summary().contains("PASS"));
    // Every simulated repetition satisfied the hard accounting invariants.
    for r in &report.scenarios {
        for s in &r.strategies {
            assert!(
                s.invariant_violations.is_empty(),
                "{} / {}: {:?}",
                r.scenario.id,
                s.strategy,
                s.invariant_violations
            );
        }
    }
    // Every enumerable instance ran the exhaustive oracle.
    assert_eq!(
        report
            .scenarios
            .iter()
            .filter(|r| r.exhaustive.is_some())
            .count(),
        3
    );
}

#[test]
fn report_json_is_run_and_thread_invariant() {
    // The shared records ran on 4 workers; a fresh single-worker pass of
    // the identical matrix must produce byte-identical JSON — the
    // determinism contract behind the golden snapshot.
    let serial = conformance::run_matrix_records(Profile::Smoke, 1);
    let a = ConformanceReport::gate("smoke", records().to_vec(), Tolerances::default());
    let b = ConformanceReport::gate("smoke", serial, Tolerances::default());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn perturbed_tolerances_fail_loudly() {
    // The engine's negative path: an impossible rank-correlation bar must
    // trip every agreement-gated pair, and an optimality demand above the
    // enumerated optimum must trip every exhaustive instance. A gate
    // engine that cannot fail protects nothing.
    let tol = Tolerances {
        min_spearman: 1.5, // Spearman ρ ≤ 1 by construction
        min_greedy_fraction: 2.0,
        ..Tolerances::default()
    };
    let report = ConformanceReport::gate("smoke", records().to_vec(), tol);
    assert!(!report.passed);
    assert!(report.summary().contains("FAIL"));
    let gated_pairs: usize = records()
        .iter()
        .filter(|r| r.scenario.agreement_gated)
        .map(|r| r.strategies.len())
        .sum();
    let spearman_hits = report
        .violations
        .iter()
        .filter(|v| v.gate == "spearman")
        .count();
    assert_eq!(
        spearman_hits, gated_pairs,
        "one spearman violation per gated pair"
    );
    let exhaustive_hits = report
        .violations
        .iter()
        .filter(|v| v.gate == "exhaustive")
        .count();
    assert_eq!(
        exhaustive_hits, 3,
        "one optimality violation per enumerable instance"
    );
}

#[test]
fn smoke_report_matches_golden_snapshot() {
    let report = ConformanceReport::gate("smoke", records().to_vec(), Tolerances::default());
    golden::check_or_update("conformance_smoke", &report.to_json())
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn table1_sf_motivation_matches_golden_snapshot() {
    // Regression-pins the Table-I motivation numbers (expected per-device
    // transmission times) the paper's argument opens with.
    let results: Vec<ef_lora_bench::motivation::ScenarioResult> =
        ef_lora_bench::motivation::table1_scenarios()
            .iter()
            .map(ef_lora_bench::motivation::evaluate)
            .collect();
    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    golden::check_or_update("table1_sf_motivation", &json).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn simulator_oracle_agrees_with_bench_harness() {
    // Differential check of the oracle's replication runner against
    // `ef_lora_bench::harness::run_strategy` — the pipeline every figure
    // is produced with. Same config, topology, allocation, repetition
    // count and seed schedule ⇒ identical rep-averaged per-device EE.
    use ef_lora::{EfLora, Strategy};
    use ef_lora_bench::harness::{paper_config_at, Deployment, Scale};
    use lora_model::NetworkModel;
    use lora_sim::Topology;

    let mut scale = Scale::smoke().with_threads(2);
    scale.reps = 3;
    scale.duration_s = 2_400.0;
    let mut config = paper_config_at(&scale);
    config.duration_s = scale.duration_s; // run_strategy overrides it too
    let deployment = Deployment::disc(18, 2, 5);
    let topology = Topology::disc(
        deployment.n_devices,
        deployment.n_gateways,
        deployment.radius_m,
        &config,
        deployment.seed,
    );
    let model = NetworkModel::new(&config, &topology);

    let ef = EfLora::default();
    let outcome = ef_lora_bench::harness::run_strategy(&config, &topology, &model, &ef, &scale);

    let ctx = ef_lora::AllocationContext::new(&config, &topology, &model);
    let alloc = ef.allocate(&ctx).expect("allocates");
    let (oracle_ee, violations) =
        simulator_oracle(&config, &topology, alloc.as_slice(), scale.reps, 2);

    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(oracle_ee.len(), outcome.ee_per_device.len());
    for (i, (a, b)) in oracle_ee.iter().zip(&outcome.ee_per_device).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            "device {i}: oracle {a} vs harness {b}"
        );
    }
    let oracle_min = oracle_ee.iter().copied().fold(f64::INFINITY, f64::min);
    assert!((oracle_min - outcome.min_ee).abs() <= 1e-12 * outcome.min_ee.abs().max(1.0));
}
