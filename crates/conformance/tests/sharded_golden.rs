//! Golden snapshots for the cell-sharded allocator.
//!
//! Each pins one small sharded run byte for byte: the allocation, the
//! `evaluate_sharded` EE of every device (as `f64` bits) and the
//! `SpatialReport` counters.
//!
//! Refresh with
//! `EF_LORA_UPDATE_GOLDEN=1 cargo test -p conformance --test sharded_golden`.

use conformance::golden;
use ef_lora::SpatialEfLora;
use lora_sim::{SimConfig, Topology};
use serde::Serialize;

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

/// Runs the planner with `max_cell_gateways` on `topology` at 1 and 2
/// workers, checks that both agree and returns the pretty-printed
/// snapshot.
fn snapshot(config: &SimConfig, topology: &Topology, max_cell_gateways: usize) -> String {
    let planner = SpatialEfLora::default()
        .with_dense_threshold(50)
        .with_target_occupancy(40)
        .with_max_cell_gateways(max_cell_gateways);
    let report = planner
        .clone()
        .with_threads(2)
        .allocate_with_report(config, topology)
        .expect("the sharded run allocates");
    assert!(report.sharded, "the pinned run must take the sharded path");
    let one_worker = planner
        .clone()
        .with_threads(1)
        .allocate_with_report(config, topology)
        .expect("the sharded run allocates");
    assert_eq!(report, one_worker, "1 and 2 workers must agree");
    let alloc = report.allocation.as_slice();
    let ee = planner
        .evaluate_sharded(config, topology, alloc)
        .expect("the sharded run evaluates");
    let snapshot = ShardedSmoke {
        devices: topology.device_count(),
        gateways: topology.gateway_count(),
        max_cell_gateways,
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
    json
}

/// Each cell's exact gateway subset holds 2 of the deployment's 5
/// gateways, so neighbouring cells tile different subsets and the ring
/// ambient also prices members against gateways outside their own cell's
/// tile. The stitch guard keeps the stitched allocation here.
#[test]
fn sharded_run_matches_golden() {
    let config = SimConfig::default();
    let topology = Topology::disc(320, 5, 6_000.0, &config, 1);
    let json = snapshot(&config, &topology, 2);
    golden::check_or_update("sharded_smoke", &json).unwrap();
}

/// The stitch guard refuses the stitched allocation here: its exact
/// localized `(min, mean)` EE falls below the solved one, so the solved
/// allocation goes on to the tail repair and `boundary_reconfigured`
/// reads 0.
#[test]
fn refused_stitch_run_matches_golden() {
    let config = SimConfig::default();
    let topology = Topology::disc(200, 2, 4_000.0, &config, 0);
    let json = snapshot(&config, &topology, 16);
    assert!(json.contains("\"boundary_reconfigured\": 0,"));
    golden::check_or_update("sharded_refused_stitch", &json).unwrap();
}
