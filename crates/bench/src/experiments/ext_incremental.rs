//! Extension experiment — incremental re-allocation on device additions
//! (paper Section III-E future work).
//!
//! A deployment grows by 5 % new devices. Compare three responses:
//! keeping the old allocation and giving newcomers the legacy rule,
//! the bounded incremental allocator, and a full EF-LoRa re-run — on
//! (a) the resulting minimum EE and (b) how many *existing* devices had to
//! be reconfigured over the air.

use serde::Serialize;

use ef_lora::{seed_newcomers, AllocationContext, EfLora, IncrementalAllocator, Strategy};
use lora_model::NetworkModel;
use lora_sim::Topology;

use crate::harness::{paper_config_at, Scale};
use crate::output::{f3, print_table, write_json};

/// Devices before growth.
pub const PAPER_DEVICES: usize = 2000;
/// Gateways.
pub const GATEWAYS: usize = 3;
/// Fraction of new devices added.
pub const GROWTH: f64 = 0.05;

/// One response to the growth event.
#[derive(Debug, Serialize)]
pub struct Response {
    /// Response label.
    pub label: String,
    /// Model minimum EE after the growth, bits/mJ.
    pub min_ee: f64,
    /// Existing devices whose configuration changed.
    pub reconfigured: usize,
    /// Candidate evaluations spent.
    pub candidates: u64,
}

/// Runs the growth scenario.
pub fn run(scale: &Scale) -> Vec<Response> {
    let n_old = scale.devices(PAPER_DEVICES);
    let n_new = ((n_old as f64 * GROWTH).round() as usize).max(1);
    let config = paper_config_at(scale);

    let grown = Topology::disc(n_old + n_new, GATEWAYS, 5_000.0, &config, 19);
    let old_topo = Topology::from_sites(
        grown.devices()[..n_old].to_vec(),
        grown.gateways().to_vec(),
        grown.radius_m(),
    );
    let old_model = NetworkModel::new(&config, &old_topo);
    let old_ctx = AllocationContext::new(&config, &old_topo, &old_model);
    let previous = EfLora::default()
        .allocate(&old_ctx)
        .expect("initial allocation");

    let new_model = NetworkModel::new(&config, &grown);
    let new_ctx = AllocationContext::new(&config, &grown, &new_model);

    let mut responses = Vec::new();

    // (a) Do nothing clever: newcomers keep their seed configuration
    // (the legacy SF rule at maximum power).
    let seeded = seed_newcomers(&new_ctx, previous.as_slice());
    {
        let min_ee = ef_lora::fairness::min_ee(&new_model.evaluate(&seeded));
        responses.push(Response {
            label: "keep + legacy newcomers".into(),
            min_ee,
            reconfigured: 0,
            candidates: 0,
        });
    }

    // (b) The incremental allocator.
    {
        let mut state = new_model.state(seeded).expect("valid allocation");
        let outcome = IncrementalAllocator::default()
            .extend(&mut state, new_ctx.candidates(), n_old)
            .expect("incremental allocation");
        responses.push(Response {
            label: "incremental EF-LoRa".into(),
            min_ee: outcome.min_ee,
            reconfigured: outcome.reconfigured,
            candidates: outcome.candidates_evaluated,
        });
    }

    // (c) A full re-run.
    {
        let report = EfLora::default()
            .allocate_with_report(&new_ctx)
            .expect("full re-run");
        let reconfigured = previous
            .as_slice()
            .iter()
            .zip(report.allocation.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        responses.push(Response {
            label: "full EF-LoRa re-run".into(),
            min_ee: report.final_min_ee,
            reconfigured,
            candidates: report.candidates_evaluated,
        });
    }

    let rows: Vec<Vec<String>> = responses
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                f3(r.min_ee),
                r.reconfigured.to_string(),
                r.candidates.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Extension — incremental re-allocation after +{n_new} devices on {n_old}"),
        &[
            "response",
            "min EE (model)",
            "existing devices reconfigured",
            "candidates",
        ],
        &rows,
    );
    write_json("ext_incremental", &responses);
    responses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_is_cheap_and_competitive() {
        let mut scale = Scale::smoke();
        scale.device_factor = 0.05;
        let responses = run(&scale);
        assert_eq!(responses.len(), 3);
        let keep = &responses[0];
        let incremental = &responses[1];
        let full = &responses[2];
        // Incremental at least matches doing nothing clever…
        assert!(incremental.min_ee >= keep.min_ee - 1e-9);
        // …approaches the full re-run…
        assert!(incremental.min_ee >= full.min_ee * 0.7);
        // …at a fraction of the search and reconfiguration cost.
        assert!(incremental.candidates < full.candidates);
        assert!(incremental.reconfigured <= full.reconfigured);
    }
}
