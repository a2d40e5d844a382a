//! Extension experiment — scaling curves of the cell-sharded allocator.
//!
//! Allocates and model-evaluates growing PPP-like disc deployments with
//! [`SpatialEfLora`], recording wall-clock and peak memory per point in
//! the perf-report schema (`ef-lora-perf/v1`) that the daemon's soak
//! curve also uses, so both gate through the same code.
//!
//! The curve keeps the *density* fixed while the population grows: the
//! disc radius scales with `sqrt(n)` and the gateway count with `n`, so
//! every point sees the paper's deployment regime and the measurement
//! isolates how the sharded pipeline scales rather than how contention
//! degrades. Three rows are emitted per point:
//!
//! * `ext_scale/alloc/<n>dev` — the full four-phase sharded allocation
//!   (`events` = candidate configurations examined);
//! * `ext_scale/eval/<n>dev` — the sharded model evaluation of the
//!   produced allocation (`events` = devices);
//! * `ext_scale/rss_mib/<n>dev` — the process peak RSS (`VmHWM`) in MiB,
//!   carried in the `median_ms`/`p95_ms` fields — the schema has no
//!   memory column, and a separate row keeps the 25 % regression gate
//!   watching memory exactly like it watches latency. Linux-only; the
//!   row reads 0 elsewhere and the gate treats 0 as "not measured".
//!
//! The curve gates against its committed baseline
//! (`tests/golden/scale_baseline.json`, recorded at smoke scale) through
//! the shared gate, [`crate::perf::gate`]. Latency rows are normalised
//! by the machine-speed probe ([`CALIBRATION_ID`]) so shared-runner
//! speed swings don't masquerade as allocator regressions; the RSS rows
//! are deliberately *not* normalised — memory does not scale with clock
//! speed.

use ef_lora::SpatialEfLora;
use lora_sim::{SimConfig, Topology};

use crate::harness::{Scale, ScaleKind};
use crate::output::{f2, print_table, write_json};
use crate::perf::{self, git_describe, PerfIssue, PerfReport, WorkloadResult, SCHEMA};

/// Topology seed of every curve point.
pub const SCALE_SEED: u64 = 11;

/// The population curve per preset. Smoke keeps CI fast just above the
/// dense threshold; `paper` is the ISSUE target curve ending at one
/// million devices.
pub fn scale_points(scale: &Scale) -> Vec<usize> {
    match scale.kind {
        ScaleKind::Smoke => vec![2_000, 5_000],
        ScaleKind::Small => vec![10_000, 50_000],
        ScaleKind::Paper => vec![10_000, 100_000, 1_000_000],
    }
}

/// Disc radius holding the reference density — 5k devices in an 8 km
/// disc (~25 devices/km², the README quick-start deployment) — as `n`
/// grows.
pub fn radius_m(devices: usize) -> f64 {
    8_000.0 * (devices as f64 / 5_000.0).sqrt()
}

/// Gateway count holding ~1250 devices per gateway (at least two).
pub fn gateway_count(devices: usize) -> usize {
    (devices / 1_250).max(2)
}

/// Measurement repetitions per point: the smoke points are cheap enough
/// to take a best-of envelope; the larger curves run once.
pub fn reps_for(scale: &Scale) -> usize {
    match scale.kind {
        ScaleKind::Smoke => 2,
        ScaleKind::Small | ScaleKind::Paper => 1,
    }
}

/// Identifier of the machine-speed calibration row.
pub const CALIBRATION_ID: &str = "ext_scale/calibration";

/// The process peak resident set (`VmHWM`) in MiB; 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim();
                let kb: f64 = kb.split_whitespace().next()?.parse().ok()?;
                Some(kb / 1024.0)
            })
        })
        .unwrap_or(0.0)
}

/// One row of the curve's human-readable table.
struct PointSummary {
    devices: usize,
    gateways: usize,
    cells: usize,
    alloc_ms: f64,
    eval_ms: f64,
    min_ee: f64,
    mean_ee: f64,
    jain: f64,
    tail_moved: usize,
    rss_mib: f64,
}

/// Measures one curve point: allocate with the sharded solver, evaluate
/// the allocation under the same localized objective, snapshot peak RSS.
fn run_point(devices: usize, scale: &Scale, reps: usize) -> (Vec<WorkloadResult>, PointSummary) {
    // Periodic reporting with the interval growing with the population
    // (600 s at the 5k reference, so ~33 h at 1M — the massive-IoT
    // metering regime). Contention in the model is Eq. 14's *global*
    // per-(SF, channel) load `1 − e^{−α·m}`: at a fixed interval ALOHA
    // saturates as n grows and every point past ~20k reads EE ≈ 0
    // regardless of the allocator. Holding `α·m` fixed instead keeps
    // every point at the same operating point, so the EE columns stay
    // comparable along the curve and keep sanity-checking the
    // allocator; wall-clock and RSS — the quantities under test — do
    // not depend on the interval. The preset-duty contention sweeps
    // live in the fig4–fig10 experiments.
    let config = SimConfig {
        report_interval_s: 600.0 * (devices as f64 / 5_000.0).max(1.0),
        ..SimConfig::default()
    };
    let gateways = gateway_count(devices);
    let topology = Topology::disc(devices, gateways, radius_m(devices), &config, SCALE_SEED);
    let solver = SpatialEfLora::default().with_threads(scale.threads);

    let mut alloc_ms = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = solver
            .allocate_with_report(&config, &topology)
            .expect("scaling-curve deployment allocates");
        alloc_ms = alloc_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    let report = report.expect("at least one repetition ran");

    let mut eval_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let ee = solver
            .evaluate_sharded(&config, &topology, report.allocation.as_slice())
            .expect("produced allocation evaluates");
        std::hint::black_box(ee.len());
        eval_ms = eval_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let rss_mib = peak_rss_mib();
    let per_sec = |count: f64, ms: f64| {
        if ms > 0.0 {
            count / (ms / 1_000.0)
        } else {
            0.0
        }
    };
    let rows = vec![
        WorkloadResult {
            id: format!("ext_scale/alloc/{devices}dev"),
            devices,
            gateways,
            threads: scale.threads,
            events: report.candidates_evaluated,
            median_ms: alloc_ms,
            p95_ms: alloc_ms,
            events_per_sec: per_sec(report.candidates_evaluated as f64, alloc_ms),
            devices_per_sec: per_sec(devices as f64, alloc_ms),
        },
        WorkloadResult {
            id: format!("ext_scale/eval/{devices}dev"),
            devices,
            gateways,
            threads: scale.threads,
            events: devices as u64,
            median_ms: eval_ms,
            p95_ms: eval_ms,
            events_per_sec: per_sec(devices as f64, eval_ms),
            devices_per_sec: per_sec(devices as f64, eval_ms),
        },
        WorkloadResult {
            id: format!("ext_scale/rss_mib/{devices}dev"),
            devices,
            gateways,
            threads: scale.threads,
            events: 0,
            median_ms: rss_mib,
            p95_ms: rss_mib,
            events_per_sec: 0.0,
            devices_per_sec: 0.0,
        },
    ];
    let summary = PointSummary {
        devices,
        gateways,
        cells: report.cells,
        alloc_ms,
        eval_ms,
        min_ee: report.min_ee,
        mean_ee: report.mean_ee,
        jain: report.jain,
        tail_moved: report.tail_reconfigured,
        rss_mib,
    };
    (rows, summary)
}

/// Runs an explicit population curve (the preset-driven entry point is
/// [`run`]; tests call this with a tiny curve).
pub fn run_points(points: &[usize], scale: &Scale, reps: usize) -> PerfReport {
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    for &devices in points {
        let (rows, s) = run_point(devices, scale, reps);
        workloads.extend(rows);
        table.push(vec![
            s.devices.to_string(),
            s.gateways.to_string(),
            s.cells.to_string(),
            f2(s.alloc_ms / 1_000.0),
            f2(s.eval_ms / 1_000.0),
            format!("{:.3}", s.min_ee),
            format!("{:.3}", s.mean_ee),
            format!("{:.3}", s.jain),
            s.tail_moved.to_string(),
            f2(s.rss_mib),
        ]);
    }
    workloads.push(perf::calibration_row(CALIBRATION_ID));
    let perf = PerfReport {
        schema: SCHEMA.to_string(),
        git_describe: git_describe(),
        scale: format!("{:?}", scale.kind).to_lowercase(),
        reps,
        workloads,
    };
    print_table(
        "ext_scale: cell-sharded allocation scaling curve (fixed density, sqrt-n radius)",
        &[
            "devices",
            "gateways",
            "cells",
            "alloc (s)",
            "eval (s)",
            "min EE",
            "mean EE",
            "jain",
            "tail",
            "RSS (MiB)",
        ],
        &table,
    );
    write_json("ext_scale", &perf);
    perf
}

/// Runs the preset scaling curve and archives
/// `target/experiments/ext_scale.json` (a [`PerfReport`]).
pub fn run(scale: &Scale) -> PerfReport {
    run_points(&scale_points(scale), scale, reps_for(scale))
}

/// Gates `perf` against `tests/golden/scale_baseline.json` through the
/// shared [`perf::gate`] (`EF_LORA_UPDATE_GOLDEN=1` rewrites the
/// baseline).
///
/// # Errors
///
/// The list of regressions, when the gate fails.
pub fn gate(perf: &PerfReport) -> Result<(), Vec<PerfIssue>> {
    perf::gate("ext_scale", "scale_baseline.json", perf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_emits_three_rows_per_point_plus_probe() {
        // One point just above the sharded threshold keeps this unit
        // test debug-build-friendly; the preset curves run in CI's
        // release-mode scale-smoke job.
        let scale = Scale::smoke().with_threads(0);
        let perf = run_points(&[1_100], &scale, 1);
        assert_eq!(perf.schema, SCHEMA);
        assert_eq!(perf.workloads.len(), 4);
        let [alloc, eval, rss, probe] = perf.workloads.as_slice() else {
            panic!("expected 4 rows");
        };
        assert_eq!(alloc.id, "ext_scale/alloc/1100dev");
        assert!(alloc.median_ms > 0.0 && alloc.events > 0);
        assert_eq!(eval.id, "ext_scale/eval/1100dev");
        assert_eq!(eval.events, 1_100);
        assert_eq!(rss.id, "ext_scale/rss_mib/1100dev");
        if cfg!(target_os = "linux") {
            assert!(rss.median_ms > 0.0, "VmHWM reads on Linux");
        }
        assert_eq!(probe.id, CALIBRATION_ID);
        assert!(probe.median_ms > 0.0);
    }

    #[test]
    fn curve_geometry_holds_density_and_gateway_load() {
        let d5 = radius_m(5_000);
        let d20 = radius_m(20_000);
        assert!((d5 - 8_000.0).abs() < 1e-9);
        assert!((d20 / d5 - 2.0).abs() < 1e-9, "radius scales with sqrt(n)");
        assert_eq!(gateway_count(1_000), 2, "floor of two gateways");
        assert_eq!(gateway_count(1_000_000), 800);
    }
}
