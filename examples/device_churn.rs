//! Device churn: operating a live network through additions and removals
//! without re-provisioning the whole fleet.
//!
//! The paper (Section III-E) notes that re-running the allocator on every
//! change "may lead to interruptions to the network operations" — each
//! changed assignment is a downlink command to a sleeping device. This
//! example walks a season of farm operations: an initial deployment, a
//! mid-season expansion, and an end-of-season partial tear-down, using the
//! incremental allocator and counting what each event actually costs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example device_churn
//! ```

use ef_lora::{seed_newcomers, IncrementalAllocator};
use ef_lora_repro::prelude::*;
use lora_sim::Topology as SimTopology;

fn main() {
    let config = SimConfig::builder().seed(31).build();

    // Season start: 300 probes, 2 gateways. Generate the *full-season*
    // device list up front so the expansion reuses identical sites.
    let full = SimTopology::disc(360, 2, 4_000.0, &config, 31);
    let spring = SimTopology::from_sites(
        full.devices()[..300].to_vec(),
        full.gateways().to_vec(),
        full.radius_m(),
    );
    let spring_model = NetworkModel::new(&config, &spring);
    let spring_ctx = AllocationContext::new(&config, &spring, &spring_model);
    let report = EfLora::default()
        .allocate_with_report(&spring_ctx)
        .expect("allocation");
    println!(
        "spring: {} devices allocated from scratch in {} passes — min EE {:.3} bits/mJ",
        report.allocation.len(),
        report.passes,
        report.final_min_ee
    );

    // Mid-season: 60 more probes on the new field.
    let summer_model = NetworkModel::new(&config, &full);
    let summer_ctx = AllocationContext::new(&config, &full, &summer_model);
    let mut summer_state = summer_model
        .state(seed_newcomers(&summer_ctx, report.allocation.as_slice()))
        .expect("valid allocation");
    let grown = IncrementalAllocator::default()
        .extend(
            &mut summer_state,
            summer_ctx.candidates(),
            report.allocation.len(),
        )
        .expect("incremental extension");
    println!(
        "summer: +60 devices — {} existing probes reconfigured over the air, min EE {:.3}",
        grown.reconfigured, grown.min_ee
    );
    let full_rerun = EfLora::default()
        .allocate_with_report(&summer_ctx)
        .expect("re-run");
    let rerun_changes = report
        .allocation
        .as_slice()
        .iter()
        .zip(full_rerun.allocation.as_slice())
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "        (a full re-run would reach min EE {:.3} but reconfigure {} probes)",
        full_rerun.final_min_ee, rerun_changes
    );

    // Autumn: the last 100 summer probes are pulled out.
    let autumn = SimTopology::from_sites(
        full.devices()[..260].to_vec(),
        full.gateways().to_vec(),
        full.radius_m(),
    );
    let autumn_model = NetworkModel::new(&config, &autumn);
    let autumn_ctx = AllocationContext::new(&config, &autumn, &autumn_model);
    let remaining: Vec<TxConfig> = grown.allocation.as_slice()[..260].to_vec();
    let removed: Vec<TxConfig> = grown.allocation.as_slice()[260..].to_vec();
    let mut autumn_state = autumn_model.state(remaining).expect("valid allocation");
    let repaired = IncrementalAllocator::default()
        .after_removal(&mut autumn_state, autumn_ctx.candidates(), &removed)
        .expect("removal repair");
    println!(
        "autumn: −100 devices — {} probes re-tuned into the freed spectrum, min EE {:.3}",
        repaired.reconfigured, repaired.min_ee
    );

    // Sanity: the final plan still simulates cleanly.
    let sim_report = Simulation::new(config, autumn, repaired.allocation.into_inner())
        .expect("simulation")
        .run();
    println!(
        "verification run: mean PRR {:.3}, measured min EE {:.3} bits/mJ",
        sim_report.mean_prr(),
        sim_report.min_energy_efficiency_bits_per_mj()
    );
}
