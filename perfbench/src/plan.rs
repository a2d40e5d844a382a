//! `plan-10k`: the sharded planner.
//!
//! `SpatialEfLora` (CLI strategy `ef-lora-spatial`) allocates 10 000
//! devices with 2 workers on the density-holding geometry of the scale
//! curve: an 11.3 km disc (5k devices per 8 km disc), 8 gateways and a
//! 1200 s reporting interval. All four sharded phases run — seed, cell
//! solves, boundary stitch, tail repair — and no protocol, journal or
//! simulator work, so serve-side and simulator-side changes leave this
//! workload unchanged. It is also the size where the sharded allocator's
//! fairness collapse shows (starved devices, a min EE near zero), so the
//! quality metrics gate a fix or a regression of it.
//!
//! The deployment is the scale curve's own (seed 11). Each allocation of
//! a run sees its devices in its own order drawn from the run's seed,
//! which changes the seed phase's channel striping and with it the
//! trajectory; a new deployment per seed moved the allocation time by
//! ±11 % and the min EE by orders of magnitude. The metrics are medians
//! over a run's allocations.
//!
//! Output checks: every allocation covers every device with a valid
//! channel; `evaluate_sharded` returns a finite EE for every device; in
//! the traced run the 1-worker and 2-worker allocations are
//! byte-identical.

use std::time::Instant;

use ef_lora::{SpatialEfLora, SpatialReport};
use lora_phy::TxConfig;
use lora_sim::{SimConfig, Topology};
use lora_spatial::{attenuation_horizon_m, cell_size_m, CellGrid, DEFAULT_HORIZON_EPSILON};

use crate::report::{fairness, median, peak_rss_mib, tail, Outcome};
use crate::trace::{finish_trace, Recorder};
use crate::{Args, Mix, WORKERS};

const DEVICES: usize = 10_000;
const GATEWAYS: usize = 8;
/// 5 000 devices per 8 km disc, held at 10 000 devices.
const RADIUS_M: f64 = 8_000.0 * std::f64::consts::SQRT_2;
const INTERVAL_S: f64 = 1_200.0;
/// The scale curve's deployment seed; the run's seed orders its devices.
const DEPLOYMENT_SEED: u64 = 11;
/// Seconds of `--seconds` per allocation: about one allocation's time on
/// a 2-vCPU x86-64 host. The count is fixed by `--seconds`, never by the
/// clock.
const SECONDS_PER_ALLOCATION: u64 = 5;
/// Topology generations timed per run; `setup_s` is their median.
const SETUPS: usize = 51;
/// `evaluate_sharded` calls timed per allocation. The device order moves
/// the evaluation's memory access pattern, so `eval_ms` is the mean over
/// the run's orders of each order's median.
const EVALUATIONS: usize = 10;
/// The grid occupancy `SpatialEfLora` sizes its cells for by default.
const TARGET_OCCUPANCY: usize = 256;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        report_interval_s: INTERVAL_S,
        seed: Mix::new(seed, 4).draw(),
        ..SimConfig::default()
    }
}

/// The deployment with its devices in the order of the run's `round`-th
/// allocation.
fn topology(config: &SimConfig, seed: u64, round: u64) -> Topology {
    shuffled(
        &Topology::disc(DEVICES, GATEWAYS, RADIUS_M, config, DEPLOYMENT_SEED),
        Mix::new(seed, round).draw(),
    )
}

/// `topology` with its devices in a seed-drawn order (Fisher–Yates): the
/// same deployment, presented to the allocator differently.
fn shuffled(topology: &Topology, seed: u64) -> Topology {
    let mut rng = Mix::new(seed, 3);
    let mut sites = topology.devices().to_vec();
    for i in (1..sites.len()).rev() {
        sites.swap(i, rng.below(i + 1));
    }
    Topology::from_sites(sites, topology.gateways().to_vec(), topology.radius_m())
}

fn allocate(
    config: &SimConfig,
    topology: &Topology,
    workers: usize,
) -> Result<(SpatialReport, f64), String> {
    let started = Instant::now();
    let report = SpatialEfLora::default()
        .with_threads(workers)
        .allocate_with_report(config, topology)
        .map_err(|e| e.to_string())?;
    Ok((report, started.elapsed().as_secs_f64() * 1e3))
}

fn evaluate(
    config: &SimConfig,
    topology: &Topology,
    alloc: &[TxConfig],
) -> Result<Vec<f64>, String> {
    SpatialEfLora::default()
        .with_threads(WORKERS)
        .evaluate_sharded(config, topology, alloc)
        .map_err(|e| e.to_string())
}

fn check_allocation(outcome: &mut Outcome, config: &SimConfig, report: &SpatialReport) {
    let alloc = report.allocation.as_slice();
    let channels = config.region.uplink_channel_count();
    outcome.check(
        alloc.len() == DEVICES && alloc.iter().all(|c| c.channel < channels),
        || format!("allocation covers {} of {DEVICES} devices", alloc.len()),
    );
    outcome.check(report.sharded, || "the sharded path did not run".into());
}

fn check_ee(outcome: &mut Outcome, ee: &[f64]) {
    outcome.check(
        ee.len() == DEVICES && ee.iter().all(|x| x.is_finite()),
        || {
            format!(
                "evaluate_sharded returned {} values, not all finite",
                ee.len()
            )
        },
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config(args.seed);
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &mut outcome, &config)?;
        return Ok(outcome);
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let started = Instant::now();
        std::hint::black_box(topology(&config, args.seed, 0));
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let rounds = args.seconds.div_ceil(SECONDS_PER_ALLOCATION);
    let (mut alloc_ms, mut eval_ms, mut jain) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let topology = topology(&config, args.seed, round);
        let (report, ms) = allocate(&config, &topology, WORKERS)?;
        alloc_ms.push(ms);
        check_allocation(&mut outcome, &config, &report);
        let mut order_eval_ms = Vec::with_capacity(EVALUATIONS);
        for _ in 0..EVALUATIONS {
            let started = Instant::now();
            let ee = evaluate(&config, &topology, report.allocation.as_slice())?;
            order_eval_ms.push(started.elapsed().as_secs_f64() * 1e3);
            check_ee(&mut outcome, &ee);
            jain.push(fairness(&ee)[1]);
        }
        eval_ms.push(median(&order_eval_ms));
    }
    eprintln!(
        "plan-10k: {} allocations, {:.1} ms median",
        alloc_ms.len(),
        median(&alloc_ms)
    );

    outcome.set("setup_s", median(&setup_s));
    outcome.set("alloc_ms", median(&alloc_ms));
    outcome.set("alloc_tail_ms", tail(&alloc_ms));
    outcome.set(
        "eval_ms",
        eval_ms.iter().sum::<f64>() / eval_ms.len() as f64,
    );
    outcome.set("ops_per_s", DEVICES as f64 / (median(&alloc_ms) / 1e3));
    outcome.set("jain", median(&jain));
    outcome.set("peak_rss_mib", peak_rss_mib("self"));
    Ok(outcome)
}

/// The traced run on the first allocation's device order: topology, the
/// 2-worker and 1-worker allocations, the sharded evaluation and the
/// substrate's grid sizing.
fn traced(args: &Args, outcome: &mut Outcome, config: &SimConfig) -> Result<(), String> {
    let mut rec = Recorder::new();
    let start = Instant::now();
    let topology = rec.span("lora-sim.topology", 0, |_| topology(config, args.seed, 0));
    let (two, two_ms) = rec.span("core.spatial.allocate", 0, |_| {
        allocate(config, &topology, WORKERS)
    })?;
    let (one, one_ms) = rec.span("core.spatial.allocate_1w", 0, |_| {
        allocate(config, &topology, 1)
    })?;
    let ee = rec.span("core.spatial.evaluate", 0, |_| {
        evaluate(config, &topology, two.allocation.as_slice())
    })?;
    let occupied = rec.span("lora-spatial.grid", 0, |_| {
        let horizon = attenuation_horizon_m(config, DEFAULT_HORIZON_EPSILON);
        let edge = cell_size_m(horizon, RADIUS_M, DEVICES, TARGET_OCCUPANCY);
        CellGrid::build(&topology, edge).occupied_cells().len()
    });
    let end = Instant::now();

    check_allocation(outcome, config, &two);
    check_ee(outcome, &ee);
    outcome.check(two.allocation == one.allocation, || {
        "1-worker and 2-worker allocations differ".into()
    });

    let layers = [
        "lora-sim.topology",
        "core.spatial.allocate",
        "core.spatial.allocate_1w",
        "core.spatial.evaluate",
        "lora-spatial.grid",
    ];
    finish_trace(args, outcome, &rec, &layers, start, end)?;
    let candidates = two.candidates_evaluated as f64;
    outcome.set("core.spatial.allocate_ms", two_ms);
    outcome.set("core.spatial.allocate_1w_ms", one_ms);
    outcome.set("lora-parallel.speedup", one_ms / two_ms);
    outcome.set("core.spatial.cells", two.cells as f64);
    outcome.set("core.spatial.candidates", candidates);
    outcome.set("core.spatial.candidates_per_s", candidates / (two_ms / 1e3));
    outcome.set(
        "core.spatial.boundary_moves",
        two.boundary_reconfigured as f64,
    );
    outcome.set("core.spatial.tail_moves", two.tail_reconfigured as f64);
    outcome.set(
        "core.spatial.evaluate_ms",
        rec.total_ms("core.spatial.evaluate"),
    );
    outcome.set("lora-spatial.grid_ms", rec.total_ms("lora-spatial.grid"));
    outcome.set("lora-spatial.occupied_cells", occupied as f64);
    let [min_ee, _, starved] = fairness(&ee);
    outcome.set("output.min_ee", min_ee);
    outcome.set("output.starved_share", starved);
    Ok(())
}
