//! Golden snapshot for the dense Algorithm 1 scan.
//!
//! Pins two small dense runs byte for byte: every device's configuration,
//! the `GreedyReport` counters and the bits of the initial and final
//! minimum EE, for `EfLora` (full TP allocation) and `EfLoraFixedTp` (one
//! TP level, so each SF block holds one candidate per channel). The
//! `EfLora` run is repeated on 2 scan workers and must report the same
//! bits.
//!
//! Refresh with
//! `EF_LORA_UPDATE_GOLDEN=1 cargo test -p conformance --test dense_golden`.

use conformance::golden;
use ef_lora::{AllocationContext, EfLora, EfLoraFixedTp, GreedyReport};
use lora_model::NetworkModel;
use lora_sim::{SimConfig, Topology};
use serde::Serialize;

const DEVICES: usize = 400;
const GATEWAYS: usize = 3;

#[derive(Serialize)]
struct DenseRun {
    strategy: String,
    passes: usize,
    moves_applied: usize,
    candidates_evaluated: u64,
    initial_min_ee_bits: String,
    final_min_ee_bits: String,
    /// One configuration per device.
    allocation: Vec<String>,
}

#[derive(Serialize)]
struct DenseSmoke {
    devices: usize,
    gateways: usize,
    runs: Vec<DenseRun>,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn pin(strategy: &str, report: &GreedyReport) -> DenseRun {
    DenseRun {
        strategy: strategy.to_string(),
        passes: report.passes,
        moves_applied: report.moves_applied,
        candidates_evaluated: report.candidates_evaluated,
        initial_min_ee_bits: bits(report.initial_min_ee),
        final_min_ee_bits: bits(report.final_min_ee),
        allocation: report
            .allocation
            .iter()
            .map(|cfg| cfg.to_string())
            .collect(),
    }
}

#[test]
fn dense_run_matches_golden() {
    let config = SimConfig::default();
    let topology = Topology::disc(DEVICES, GATEWAYS, 5_000.0, &config, 7);
    let model = NetworkModel::new(&config, &topology);
    let ctx = AllocationContext::new(&config, &topology, &model);

    let serial = EfLora::default()
        .allocate_with_report(&ctx)
        .expect("the dense run allocates");
    let parallel = EfLora::default()
        .with_threads(2)
        .allocate_with_report(&ctx)
        .expect("the 2-worker dense run allocates");
    assert_eq!(serial, parallel, "the 2-worker scan must repeat 1 worker");
    let fixed = EfLoraFixedTp::default()
        .inner()
        .allocate_with_report(&ctx)
        .expect("the fixed-TP run allocates");

    let snapshot = DenseSmoke {
        devices: DEVICES,
        gateways: GATEWAYS,
        runs: vec![pin("EF-LoRa", &serial), pin("EF-LoRa-14dBm", &fixed)],
    };
    let mut json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    json.push('\n');
    golden::check_or_update("dense_smoke", &json).unwrap();
}
