//! Golden snapshot for the cell-sharded allocator.
//!
//! Pins one small sharded run byte for byte: the allocation, the
//! `evaluate_sharded` EE of every device (as `f64` bits) and the
//! `SpatialReport` counters. Each cell's exact gateway subset holds 2 of
//! the deployment's 5 gateways, so neighbouring cells tile different
//! subsets and the ring ambient also prices members against gateways
//! outside their own cell's tile.
//!
//! Refresh with
//! `EF_LORA_UPDATE_GOLDEN=1 cargo test -p conformance --test sharded_golden`.

use conformance::golden;
use ef_lora::SpatialEfLora;
use lora_sim::{SimConfig, Topology};
use serde::Serialize;

const DEVICES: usize = 320;
const GATEWAYS: usize = 5;
const MAX_CELL_GATEWAYS: usize = 2;

#[derive(Serialize)]
struct ShardedSmoke {
    devices: usize,
    gateways: usize,
    max_cell_gateways: usize,
    cells: usize,
    boundary_reconfigured: usize,
    tail_reconfigured: usize,
    candidates_evaluated: u64,
    min_ee_bits: String,
    mean_ee_bits: String,
    jain_bits: String,
    /// One line per device: its configuration and the bits of its
    /// `evaluate_sharded` EE.
    allocation: Vec<String>,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn planner() -> SpatialEfLora {
    SpatialEfLora::default()
        .with_dense_threshold(50)
        .with_target_occupancy(40)
        .with_max_cell_gateways(MAX_CELL_GATEWAYS)
        .with_threads(2)
}

#[test]
fn sharded_run_matches_golden() {
    let config = SimConfig::default();
    let topology = Topology::disc(DEVICES, GATEWAYS, 6_000.0, &config, 1);
    let report = planner()
        .allocate_with_report(&config, &topology)
        .expect("the sharded run allocates");
    assert!(report.sharded, "the pinned run must take the sharded path");
    let alloc = report.allocation.as_slice();
    let ee = planner()
        .evaluate_sharded(&config, &topology, alloc)
        .expect("the sharded run evaluates");
    let snapshot = ShardedSmoke {
        devices: DEVICES,
        gateways: GATEWAYS,
        max_cell_gateways: MAX_CELL_GATEWAYS,
        cells: report.cells,
        boundary_reconfigured: report.boundary_reconfigured,
        tail_reconfigured: report.tail_reconfigured,
        candidates_evaluated: report.candidates_evaluated,
        min_ee_bits: bits(report.min_ee),
        mean_ee_bits: bits(report.mean_ee),
        jain_bits: bits(report.jain),
        allocation: alloc
            .iter()
            .zip(&ee)
            .map(|(cfg, &value)| format!("{cfg} {}", bits(value)))
            .collect(),
    };
    let mut json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    json.push('\n');
    golden::check_or_update("sharded_smoke", &json).unwrap();
}
