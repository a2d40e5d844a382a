//! `ef-lora-plan grow` — incrementally allocate devices added to a
//! deployment (the Section III-E extension).

use ef_lora::Allocation;
use ef_lora::{seed_newcomers, AllocationContext, IncrementalAllocator};
use lora_model::NetworkModel;
use lora_sim::Topology;

use crate::args::Options;
use crate::commands::config_from;
use crate::io::{read_json, write_json};

/// Extends `--allocation` (computed for a prefix of `--topology`'s
/// devices) to cover the grown topology, touching as few existing devices
/// as possible; optionally writes `--output`.
pub fn run(opts: &Options) -> Result<(), String> {
    let topology: Topology = read_json(opts.required("topology")?)?;
    let previous: Allocation = read_json(opts.required("allocation")?)?;
    if previous.len() > topology.device_count() {
        return Err(format!(
            "allocation covers {} devices but the topology has only {}",
            previous.len(),
            topology.device_count()
        ));
    }
    let config = config_from(opts)?;
    let model = NetworkModel::new(&config, &topology);
    let ctx = AllocationContext::new(&config, &topology, &model);

    let repair = opts.parse_or("repair", true)?;
    let mut state = model
        .state(seed_newcomers(&ctx, previous.as_slice()))
        .map_err(|e| e.to_string())?;
    let outcome = IncrementalAllocator::default()
        .with_repair(repair)
        .extend(&mut state, ctx.candidates(), previous.len())
        .map_err(|e| e.to_string())?;

    let added = topology.device_count() - previous.len();
    println!(
        "allocated {added} new devices; reconfigured {} existing ones ({} candidates examined)",
        outcome.reconfigured, outcome.candidates_evaluated
    );
    println!("resulting min EE (model): {:.3} bits/mJ", outcome.min_ee);
    println!("allocation: {}", outcome.allocation);

    if let Some(output) = opts.optional("output") {
        write_json(output, &outcome.allocation)?;
        println!("wrote {output}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_lora::{EfLora, Strategy};
    use lora_sim::SimConfig;

    #[test]
    fn grows_an_allocation() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let topo_path = dir
            .join(format!("ef-lora-grow-topo-{pid}.json"))
            .to_string_lossy()
            .into_owned();
        let alloc_path = dir
            .join(format!("ef-lora-grow-alloc-{pid}.json"))
            .to_string_lossy()
            .into_owned();
        let out_path = dir
            .join(format!("ef-lora-grow-out-{pid}.json"))
            .to_string_lossy()
            .into_owned();

        let config = SimConfig::default();
        let grown = Topology::disc(25, 1, 2_000.0, &config, 3);
        let old = Topology::from_sites(
            grown.devices()[..20].to_vec(),
            grown.gateways().to_vec(),
            grown.radius_m(),
        );
        let old_model = NetworkModel::new(&config, &old);
        let old_ctx = AllocationContext::new(&config, &old, &old_model);
        let previous = EfLora::default().allocate(&old_ctx).unwrap();

        write_json(&topo_path, &grown).unwrap();
        write_json(&alloc_path, &previous).unwrap();
        let opts = Options::parse(&[
            "--topology".into(),
            topo_path.clone(),
            "--allocation".into(),
            alloc_path.clone(),
            "-o".into(),
            out_path.clone(),
        ])
        .unwrap();
        run(&opts).unwrap();
        let grown_alloc: Allocation = read_json(&out_path).unwrap();
        assert_eq!(grown_alloc.len(), 25);
        for p in [topo_path, alloc_path, out_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn oversized_allocation_errors() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let topo_path = dir
            .join(format!("ef-lora-grow-t2-{pid}.json"))
            .to_string_lossy()
            .into_owned();
        let alloc_path = dir
            .join(format!("ef-lora-grow-a2-{pid}.json"))
            .to_string_lossy()
            .into_owned();
        let config = SimConfig::default();
        let topo = Topology::disc(5, 1, 1_000.0, &config, 1);
        write_json(&topo_path, &topo).unwrap();
        write_json(&alloc_path, &Allocation::new(vec![Default::default(); 9])).unwrap();
        let opts = Options::parse(&[
            "--topology".into(),
            topo_path.clone(),
            "--allocation".into(),
            alloc_path.clone(),
        ])
        .unwrap();
        assert!(run(&opts).is_err());
        std::fs::remove_file(topo_path).ok();
        std::fs::remove_file(alloc_path).ok();
    }
}
