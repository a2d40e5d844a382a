//! Extension experiment — soak test of the `ef-lora-serve` daemon.
//!
//! Boots the daemon in-process on an ephemeral loopback port once per
//! point of a population scaling curve, drives a seeded churn burst
//! through the JSON-lines protocol with the crate's own load generator,
//! and reports sustained throughput plus per-request repair-latency
//! percentiles in the perf-report schema (`ef-lora-perf/v1`) that the
//! sharded allocator's scaling curve also uses, so both gate through the
//! same code.
//!
//! The curve scales the churn-heavy catalog scenario (200 devices at
//! factor 1.0) to 20, 200 and — beyond smoke scale — 1000 devices,
//! pinning how event throughput degrades with population. Four workload
//! rows are emitted per point: `serve_churn/<tag>` carries the p50/p95
//! repair latency (as `median_ms`/`p95_ms`) and the sustained
//! `events_per_sec`; `serve_churn/<tag>/p99` carries the p99/max tail —
//! [`crate::perf::WorkloadResult`] has no p99 field, so the tail gets
//! its own row rather than a schema fork. The `/journal` twins of both
//! repeat the point with a `--fsync batch` write-ahead journal enabled,
//! measuring the durability overhead; the gate bounds those rows against
//! the *plain* baseline rows, so journaling must stay within the same
//! regression tolerance as any other serve-path change.
//!
//! The soak gates against its committed baseline
//! (`tests/golden/serve_perf_baseline.json`, recorded at smoke scale)
//! through the shared gate, [`crate::perf::gate`]. Every point is the
//! best-of-`REPS_PER_POINT` envelope, and the gate normalises by the
//! machine-speed probe ([`CALIBRATION_ID`]) so shared-runner speed swings
//! don't masquerade as serve-path regressions.

use std::net::TcpListener;
use std::path::PathBuf;

use ef_lora::EfLora;
use ef_lora_serve::journal::{FsyncPolicy, Journal, JournalRecord};
use ef_lora_serve::loadgen::{self, LoadReport};
use ef_lora_serve::{serve_journaled, ServeState, ServerOptions};
use lora_scenario::catalog;

use crate::harness::{Scale, ScaleKind};
use crate::output::{f2, print_table, write_json};
use crate::perf::{self, git_describe, PerfIssue, PerfReport, WorkloadResult, SCHEMA};

/// Seed of the load-generator event stream.
pub const SOAK_SEED: u64 = 7;

/// The population scaling curve: (population factor over the 200-device
/// churn-heavy catalog scenario, churn events driven at that point).
/// Smoke keeps CI fast with the 20- and 200-device points; the larger
/// presets add the 1000-device point.
pub fn soak_points(scale: &Scale) -> Vec<(f64, usize)> {
    match scale.kind {
        ScaleKind::Smoke => vec![(0.1, 300), (1.0, 300)],
        ScaleKind::Small => vec![(0.1, 1_500), (1.0, 1_500), (5.0, 400)],
        ScaleKind::Paper => vec![(0.1, 5_000), (1.0, 5_000), (5.0, 1_000)],
    }
}

/// Bursts per point: each rep boots a fresh daemon and replays the same
/// seeded stream, and the point keeps the best value per metric (minimum
/// latencies, maximum throughput). A single burst's p99 is its third-
/// worst sample, so one scheduler hiccup on a shared CI box would trip
/// the regression gate; the min-over-reps floor is stable.
const REPS_PER_POINT: usize = 3;

/// Identifier of the machine-speed calibration row.
pub const CALIBRATION_ID: &str = "serve_churn/calibration";

/// Where the journaled points write their journals. Nothing reads them
/// back, so each journaled point removes the directory once its reps are
/// done.
fn journal_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ef-lora-soak-{}", std::process::id()))
}

/// One point of the scaling curve: boots a fresh daemon per rep over the
/// scaled scenario, runs the burst, returns the two workload rows built
/// from the best-of-reps envelope. With `journaled`, every rep runs with
/// a `--fsync batch` write-ahead journal on the temp filesystem, and the
/// rows get a `/journal` id segment — the journal-overhead curve.
fn run_point(factor: f64, events: usize, journaled: bool) -> (Vec<WorkloadResult>, LoadReport) {
    let spec = catalog::scale_devices(&catalog::churn_heavy(), factor);
    let mut devices = 0;
    let mut gateways = 0;
    let mut best: Option<LoadReport> = None;
    for rep_index in 0..REPS_PER_POINT {
        let state =
            ServeState::new(spec.clone(), &EfLora::default()).expect("catalog scenario allocates");
        devices = state.device_count();
        gateways = state.gateway_count();

        let journal = journaled.then(|| {
            let dir = journal_dir();
            std::fs::create_dir_all(&dir).expect("soak journal dir");
            let path = dir.join(format!("{devices}dev-{events}ev-{rep_index}.journal"));
            let base = JournalRecord::Genesis {
                strategy: "ef-lora".to_string(),
                spec: spec.clone(),
            };
            Journal::create(&path, FsyncPolicy::Batch, &base).expect("soak journal creates")
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address")
            .to_string();
        let server = std::thread::spawn(move || {
            serve_journaled(listener, state, journal, &ServerOptions::default())
        });
        let rep = loadgen::run_burst(&addr, SOAK_SEED, events, false, true)
            .expect("soak burst completes cleanly");
        server
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
        best = Some(match best {
            None => rep,
            Some(mut acc) => {
                acc.events_per_sec = acc.events_per_sec.max(rep.events_per_sec);
                acc.latency.p50_us = acc.latency.p50_us.min(rep.latency.p50_us);
                acc.latency.p95_us = acc.latency.p95_us.min(rep.latency.p95_us);
                acc.latency.p99_us = acc.latency.p99_us.min(rep.latency.p99_us);
                acc.latency.max_us = acc.latency.max_us.min(rep.latency.max_us);
                acc
            }
        });
    }
    let report = best.expect("at least one rep ran");
    if journaled {
        std::fs::remove_dir_all(journal_dir()).expect("soak journal dir removes");
    }

    let tag = format!("{devices}dev_{gateways}gw");
    let suffix = if journaled { "/journal" } else { "" };
    let latency = report.latency;
    let row = |id: String, median_ms: f64, p95_ms: f64| WorkloadResult {
        id,
        devices,
        gateways,
        threads: 1,
        events: report.events as u64,
        median_ms,
        p95_ms,
        events_per_sec: report.events_per_sec,
        devices_per_sec: 0.0,
    };
    let rows = vec![
        row(
            format!("serve_churn/{tag}{suffix}"),
            latency.p50_us / 1_000.0,
            latency.p95_us / 1_000.0,
        ),
        row(
            format!("serve_churn/{tag}{suffix}/p99"),
            latency.p99_us / 1_000.0,
            latency.max_us / 1_000.0,
        ),
    ];
    (rows, report)
}

/// Runs the scaling curve, prints the throughput table and archives
/// `target/experiments/ext_serve_soak.json` (a [`PerfReport`]).
pub fn run(scale: &Scale) -> PerfReport {
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    let mut overheads = Vec::new();
    for (factor, events) in soak_points(scale) {
        let (rows, report) = run_point(factor, events, false);
        let (journal_rows, journal_report) = run_point(factor, events, true);
        let devices = rows[0].devices;
        for (label, r) in [("", &report), (" +wal", &journal_report)] {
            let latency = r.latency;
            table.push(vec![
                format!("{devices}{label}"),
                r.events.to_string(),
                f2(r.events_per_sec),
                f2(latency.p50_us),
                f2(latency.p95_us),
                f2(latency.p99_us),
                f2(latency.max_us),
            ]);
        }
        if report.latency.p99_us > 0.0 {
            overheads.push((
                devices,
                (journal_report.latency.p99_us / report.latency.p99_us - 1.0) * 100.0,
            ));
        }
        workloads.extend(rows);
        workloads.extend(journal_rows);
    }
    workloads.push(perf::calibration_row(CALIBRATION_ID));
    let perf = PerfReport {
        schema: SCHEMA.to_string(),
        git_describe: git_describe(),
        scale: format!("{:?}", scale.kind).to_lowercase(),
        reps: REPS_PER_POINT,
        workloads,
    };
    print_table(
        "ext_serve_soak: sustained daemon throughput vs population (incremental model state; \
         +wal = batch-fsync write-ahead journal)",
        &[
            "devices", "events", "events/s", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)",
        ],
        &table,
    );
    for (devices, pct) in overheads {
        println!("ext_serve_soak: journal overhead at {devices} devices: p99 {pct:+.1}%");
    }
    write_json("ext_serve_soak", &perf);
    perf
}

/// Gates `perf` against `tests/golden/serve_perf_baseline.json` through
/// the shared [`perf::gate`] (`EF_LORA_UPDATE_GOLDEN=1` rewrites the
/// baseline).
///
/// # Errors
///
/// The list of regressions, when the gate fails.
pub fn gate(perf: &PerfReport) -> Result<(), Vec<PerfIssue>> {
    perf::gate("ext_serve_soak", "serve_perf_baseline.json", perf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_emits_a_scaling_curve_with_p99_tails() {
        let perf = run(&Scale::smoke().with_threads(1));
        assert_eq!(perf.schema, SCHEMA);
        let points = soak_points(&Scale::smoke());
        // Four rows per curve point — plain and journaled, each with its
        // p99 twin — plus the machine-speed probe.
        assert_eq!(perf.workloads.len(), 4 * points.len() + 1);
        let calibration = perf.workloads.last().expect("probe row");
        assert_eq!(calibration.id, CALIBRATION_ID);
        assert!(calibration.median_ms > 0.0);
        let mut devices_seen = Vec::new();
        for (i, pair) in perf.workloads[..4 * points.len()].chunks(2).enumerate() {
            let [head, tail] = pair else { unreachable!() };
            assert!(head.id.starts_with("serve_churn/"));
            assert_eq!(tail.id, format!("{}/p99", head.id));
            // Rows alternate plain / journaled per point.
            assert_eq!(head.id.ends_with("/journal"), i % 2 == 1, "id: {}", head.id);
            assert!(head.events_per_sec > 0.0, "throughput must be measured");
            // Percentiles are ordered: p50 <= p95 <= p99 <= max.
            assert!(head.median_ms <= head.p95_ms);
            assert!(head.p95_ms <= tail.median_ms + 1e-12);
            assert!(tail.median_ms <= tail.p95_ms);
            devices_seen.push(head.devices);
        }
        // The smoke curve covers the 20- and 200-device points of the
        // churn-heavy scenario, each measured plain and journaled.
        assert_eq!(devices_seen, vec![20, 20, 200, 200]);
        assert_eq!(perf.workloads[0].events as usize, points[0].1);
        assert!(
            !journal_dir().exists(),
            "the soak leaves its journals behind in {}",
            journal_dir().display()
        );
    }
}
