//! The perf-report schema and the one regression gate of the timed
//! experiments.
//!
//! `ext_scale` (the sharded allocator's scaling curve) and
//! `ext_serve_soak` (the daemon's soak curve) report their measurements
//! as [`SCHEMA`]-tagged [`PerfReport`]s and gate them through [`gate`]
//! against a baseline committed under `tests/golden/`, with the CI
//! tolerance [`DEFAULT_TOLERANCE`]; `EF_LORA_UPDATE_GOLDEN=1` rewrites
//! the baseline instead, mirroring the conformance golden workflow.
//!
//! Shared CI boxes swing well beyond that tolerance from run to run, so
//! every report ends with a machine-speed probe (`calibration_row`): a
//! fixed floating-point kernel that is deliberately independent of every
//! crate code path, so a regression cannot leak into the probe and cancel
//! itself out of the gate. [`gate_against`] divides each latency by the
//! ratio of the report's probe to the baseline's, so it compares work per
//! cycle rather than wall-clock.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Schema tag carried by every report.
pub const SCHEMA: &str = "ef-lora-perf/v1";

/// Default fractional regression tolerance (25 %, the CI gate).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Environment variable that rewrites the checked-in baseline instead of
/// gating against it (shared with the conformance goldens).
pub const UPDATE_ENV: &str = "EF_LORA_UPDATE_GOLDEN";

/// Iterations of the calibration kernel.
const CALIBRATION_ITERS: u64 = 400_000;

/// Runs of the calibration kernel; the probe keeps the fastest.
const CALIBRATION_RUNS: usize = 3;

/// One measured workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Stable workload identifier, e.g. `ext_scale/alloc/2000dev`.
    pub id: String,
    /// Devices in the deployment (0 when not applicable).
    pub devices: usize,
    /// Gateways in the deployment (0 when not applicable).
    pub gateways: usize,
    /// Worker threads the workload ran with.
    pub threads: usize,
    /// Deterministic count of work units processed per repetition
    /// (candidate evaluations, churn events, devices, …).
    pub events: u64,
    /// Median wall-clock over the repetitions, milliseconds.
    pub median_ms: f64,
    /// 95th-percentile wall-clock over the repetitions, milliseconds.
    pub p95_ms: f64,
    /// `events / median`, per second (0 when `events` is 0).
    pub events_per_sec: f64,
    /// `devices / median`, per second (0 when `devices` is 0).
    pub devices_per_sec: f64,
}

/// A full perf report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"` outside a repository.
    pub git_describe: String,
    /// Scale preset the workloads were derived from.
    pub scale: String,
    /// Repetitions per workload.
    pub reps: usize,
    /// The measured workloads, in measurement order.
    pub workloads: Vec<WorkloadResult>,
}

/// One finding from the regression comparator.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfIssue {
    /// A workload's median exceeded the baseline by more than the
    /// tolerance.
    Slower {
        /// Workload identifier.
        id: String,
        /// Baseline median, milliseconds.
        baseline_ms: f64,
        /// Current median, milliseconds.
        current_ms: f64,
        /// `current / baseline`.
        ratio: f64,
    },
    /// A baseline workload is absent from the current report — the
    /// workload list silently shrank.
    Missing {
        /// Workload identifier.
        id: String,
    },
}

impl std::fmt::Display for PerfIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfIssue::Slower {
                id,
                baseline_ms,
                current_ms,
                ratio,
            } => write!(
                f,
                "{id}: {current_ms:.3} ms vs baseline {baseline_ms:.3} ms ({ratio:.2}x)"
            ),
            PerfIssue::Missing { id } => {
                write!(f, "{id}: present in baseline but missing from this run")
            }
        }
    }
}

/// Compares `current` against `baseline`: flags any workload whose median
/// regressed by more than `tolerance` (fractional — 0.25 means 25 %
/// slower) and any baseline workload missing from `current`. Workloads
/// new in `current` pass silently (the next baseline refresh picks them
/// up).
pub fn compare(current: &PerfReport, baseline: &PerfReport, tolerance: f64) -> Vec<PerfIssue> {
    let mut issues = Vec::new();
    for base in &baseline.workloads {
        match current.workloads.iter().find(|w| w.id == base.id) {
            None => issues.push(PerfIssue::Missing {
                id: base.id.clone(),
            }),
            Some(cur) => {
                if base.median_ms > 0.0 && cur.median_ms > base.median_ms * (1.0 + tolerance) {
                    issues.push(PerfIssue::Slower {
                        id: base.id.clone(),
                        baseline_ms: base.median_ms,
                        current_ms: cur.median_ms,
                        ratio: cur.median_ms / base.median_ms,
                    });
                }
            }
        }
    }
    issues
}

/// Serialises a report the way a baseline is committed: pretty JSON plus
/// a trailing newline.
pub fn to_json(report: &PerfReport) -> String {
    let mut body = serde_json::to_string_pretty(report).expect("report serialises");
    body.push('\n');
    body
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Raw machine speed: the fastest of [`CALIBRATION_RUNS`] runs of a
/// fixed floating-point kernel, milliseconds.
fn machine_probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..CALIBRATION_RUNS {
        let t0 = std::time::Instant::now();
        let mut acc = 1.0f64;
        for i in 1..CALIBRATION_ITERS {
            acc = (acc + 1.0 / i as f64).sqrt() * 1.000_000_1;
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The machine-speed probe as a workload row, so the baseline records the
/// machine speed it was measured at. `id` must end in `/calibration`,
/// which is how [`gate_against`] finds the row.
pub(crate) fn calibration_row(id: &str) -> WorkloadResult {
    debug_assert!(is_calibration(id), "{id} is not a calibration id");
    let ms = machine_probe_ms();
    WorkloadResult {
        id: id.to_string(),
        devices: 0,
        gateways: 0,
        threads: 1,
        events: CALIBRATION_ITERS,
        median_ms: ms,
        p95_ms: ms,
        events_per_sec: if ms > 0.0 {
            CALIBRATION_ITERS as f64 / (ms / 1_000.0)
        } else {
            0.0
        },
        devices_per_sec: 0.0,
    }
}

fn is_calibration(id: &str) -> bool {
    id.ends_with("/calibration")
}

/// Peak-memory rows carry MiB in their latency fields.
fn is_rss(id: &str) -> bool {
    id.contains("/rss_mib/")
}

/// Gates `perf` against `baseline` at `tolerance`. Reports recorded at a
/// different scale are not comparable and pass vacuously. Otherwise every
/// baseline row must be present in `perf` and within the tolerance, under
/// three rules:
///
/// * Latencies are divided by the probe ratio `perf_probe /
///   baseline_probe` first (the rows whose id ends in `/calibration`), so
///   a uniformly slower or faster box cancels out. Without a probe on
///   both sides the ratio is 1.
/// * `/rss_mib/` rows are compared raw, since memory does not scale with
///   clock speed. A 0 reading on either side (no `/proc`) means "not
///   measured" and skips the row, and so does a row the report lacks.
/// * A `/journal` row is gated a second time against the baseline row
///   without the `/journal` segment, so journaling stays within the same
///   tolerance as any other change; that regression is reported with a
///   ` (journaled)` suffix.
///
/// Pure — [`gate`] wires it to the committed baseline.
pub fn gate_against(perf: &PerfReport, baseline: &PerfReport, tolerance: f64) -> Vec<PerfIssue> {
    if baseline.scale != perf.scale {
        return Vec::new();
    }
    let probe_of = |report: &PerfReport| {
        report
            .workloads
            .iter()
            .find(|w| is_calibration(&w.id))
            .map(|w| w.median_ms)
            .filter(|&ms| ms > 0.0)
    };
    let speed = match (probe_of(perf), probe_of(baseline)) {
        (Some(cur), Some(base)) => cur / base,
        _ => 1.0,
    };
    let mut scaled = perf.clone();
    for w in scaled.workloads.iter_mut().filter(|w| !is_rss(&w.id)) {
        w.median_ms /= speed;
        w.p95_ms /= speed;
    }
    // An unmeasured RSS reads 0, and `compare` never gates a 0: it skips a
    // 0 baseline, and a 0 never exceeds a positive one. An RSS row the
    // report lacks is not gated either.
    let mut baseline = baseline.clone();
    baseline
        .workloads
        .retain(|w| !is_rss(&w.id) || scaled.workloads.iter().any(|c| c.id == w.id));
    let mut issues = compare(&scaled, &baseline, tolerance);
    // `compare` ignores current-only rows, and a baseline may predate the
    // journal, so the journaled rows are gated against the plain ones.
    let journal_view = PerfReport {
        workloads: scaled
            .workloads
            .iter()
            .filter(|w| w.id.contains("/journal"))
            .map(|w| {
                let mut plain = w.clone();
                plain.id = plain.id.replace("/journal", "");
                plain
            })
            .collect(),
        ..scaled
    };
    issues.extend(
        compare(&journal_view, &baseline, tolerance)
            .into_iter()
            .filter_map(|issue| match issue {
                PerfIssue::Slower {
                    id,
                    baseline_ms,
                    current_ms,
                    ratio,
                } => Some(PerfIssue::Slower {
                    id: format!("{id} (journaled)"),
                    baseline_ms,
                    current_ms,
                    ratio,
                }),
                // Rows absent from the journal view (the probe, any point
                // without a journaled twin) are not journal regressions;
                // the plain pass already gates shape.
                PerfIssue::Missing { .. } => None,
            }),
    );
    issues
}

/// Path of a committed baseline, `<repo>/tests/golden/<file>`.
fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("golden")
        .join(file)
}

/// Applies the golden-baseline workflow to `perf`, the report of the
/// experiment `name`, against its committed baseline
/// `tests/golden/<baseline>`: `EF_LORA_UPDATE_GOLDEN=1` rewrites the
/// baseline; otherwise, when the baseline exists, the regressions
/// [`gate_against`] finds beyond [`DEFAULT_TOLERANCE`] are returned (the
/// experiment binaries exit non-zero on any).
///
/// # Errors
///
/// The list of regressions, when the gate fails.
pub fn gate(name: &str, baseline: &str, perf: &PerfReport) -> Result<(), Vec<PerfIssue>> {
    let path = golden_path(baseline);
    if std::env::var(UPDATE_ENV).is_ok_and(|v| v == "1") {
        std::fs::write(&path, to_json(perf)).expect("baseline path is writable");
        println!("{name}: baseline updated at {}", path.display());
        return Ok(());
    }
    let Ok(body) = std::fs::read_to_string(&path) else {
        println!("{name}: no baseline at {}; gate skipped", path.display());
        return Ok(());
    };
    let baseline: PerfReport = serde_json::from_str(&body).expect("baseline parses");
    let issues = gate_against(perf, &baseline, DEFAULT_TOLERANCE);
    if issues.is_empty() {
        println!(
            "{name}: within {:.0}% of baseline {}",
            DEFAULT_TOLERANCE * 100.0,
            baseline.git_describe
        );
        Ok(())
    } else {
        Err(issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ext_scale, ext_serve_soak};

    fn row(id: &str, median_ms: f64) -> WorkloadResult {
        WorkloadResult {
            id: id.to_string(),
            devices: 200,
            gateways: 2,
            threads: 1,
            events: 300,
            median_ms,
            p95_ms: median_ms,
            events_per_sec: 0.0,
            devices_per_sec: 0.0,
        }
    }

    fn report(scale: &str, workloads: Vec<WorkloadResult>) -> PerfReport {
        PerfReport {
            schema: SCHEMA.to_string(),
            git_describe: "test".to_string(),
            scale: scale.to_string(),
            reps: 1,
            workloads,
        }
    }

    /// Multiplies every latency of `perf` by `factor`, and its probe by
    /// `probe_factor`; memory rows stay as they are.
    fn slowed(perf: &PerfReport, factor: f64, probe_factor: f64) -> PerfReport {
        let mut out = perf.clone();
        for w in &mut out.workloads {
            let f = if is_calibration(&w.id) {
                probe_factor
            } else if is_rss(&w.id) {
                1.0
            } else {
                factor
            };
            w.median_ms *= f;
            w.p95_ms *= f;
        }
        out
    }

    #[test]
    fn comparator_passes_identical_baseline() {
        let r = report("smoke", vec![row("w", 10.0)]);
        assert!(compare(&r, &r, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn comparator_flags_synthetic_2x_slowdown() {
        let baseline = report("smoke", vec![row("w", 10.0)]);
        let slow = report("smoke", vec![row("w", 20.0)]);
        let issues = compare(&slow, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(issues.len(), 1);
        match &issues[0] {
            PerfIssue::Slower { id, ratio, .. } => {
                assert_eq!(id, "w");
                assert!((ratio - 2.0).abs() < 1e-9);
            }
            other => panic!("expected Slower, got {other:?}"),
        }
        // The reverse direction — getting faster — is never an issue.
        assert!(compare(&baseline, &slow, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn comparator_flags_missing_workload() {
        let baseline = report("smoke", vec![row("w", 10.0)]);
        let mut current = report("smoke", vec![row("other", 10.0)]);
        let issues = compare(&current, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(
            issues,
            vec![PerfIssue::Missing {
                id: "w".to_string()
            }]
        );
        // Within tolerance passes.
        current = report("smoke", vec![row("w", 12.0)]);
        assert!(compare(&current, &baseline, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn gate_normalises_latency_but_not_memory() {
        let probe = ext_scale::CALIBRATION_ID;
        let baseline = report(
            "smoke",
            vec![
                row("ext_scale/alloc/2000dev", 10.0),
                row("ext_scale/rss_mib/2000dev", 100.0),
                row(probe, 2.0),
            ],
        );
        // A uniformly 2x-slower box is not an allocator regression …
        let slow_box = report(
            "smoke",
            vec![
                row("ext_scale/alloc/2000dev", 20.0),
                row("ext_scale/rss_mib/2000dev", 100.0),
                row(probe, 4.0),
            ],
        );
        assert!(gate_against(&slow_box, &baseline, 0.25).is_empty());
        // … but 2x the memory on the same box is, probe ratio or not.
        let fat = report(
            "smoke",
            vec![
                row("ext_scale/alloc/2000dev", 20.0),
                row("ext_scale/rss_mib/2000dev", 200.0),
                row(probe, 4.0),
            ],
        );
        let issues = gate_against(&fat, &baseline, 0.25);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].to_string().contains("rss_mib"));

        // The soak's probe row normalises its latencies the same way.
        let probe = ext_serve_soak::CALIBRATION_ID;
        let soak = |median_ms: f64, probe_ms: f64| {
            report(
                "smoke",
                vec![
                    row("serve_churn/200dev_2gw/p99", median_ms),
                    row(probe, probe_ms),
                ],
            )
        };
        let baseline = soak(10.0, 2.0);
        // The whole box running 2x slower is not a serve regression …
        assert!(gate_against(&soak(20.0, 4.0), &baseline, 0.25).is_empty());
        // … but a 3x latency on a 2x-slower box is a genuine 1.5x one.
        assert_eq!(gate_against(&soak(30.0, 4.0), &baseline, 0.25).len(), 1);
        // A faster box must not mask a real regression: same wall-clock
        // on a 2x-faster machine is a 2x work-per-cycle regression.
        assert_eq!(gate_against(&soak(10.0, 1.0), &baseline, 0.25).len(), 1);
    }

    #[test]
    fn gate_skips_unmeasured_rss_and_mismatched_scales() {
        let probe = ext_scale::CALIBRATION_ID;
        let baseline = report(
            "smoke",
            vec![
                row("ext_scale/alloc/2000dev", 10.0),
                row("ext_scale/rss_mib/2000dev", 100.0),
                row(probe, 2.0),
            ],
        );
        // A platform without /proc reports 0 MiB — not a shrunken list,
        // and not a memory win to gate future runs against.
        let no_proc = report(
            "smoke",
            vec![
                row("ext_scale/alloc/2000dev", 10.0),
                row("ext_scale/rss_mib/2000dev", 0.0),
                row(probe, 2.0),
            ],
        );
        assert!(gate_against(&no_proc, &baseline, 0.25).is_empty());
        // Nor is a baseline recorded without /proc a memory limit.
        assert!(gate_against(&baseline, &no_proc, 0.25).is_empty());
        // A small-scale run is not comparable to the smoke baseline.
        let small = report("small", vec![row("ext_scale/alloc/10000dev", 999.0)]);
        assert!(gate_against(&small, &baseline, 0.25).is_empty());

        let probe = ext_serve_soak::CALIBRATION_ID;
        let soak = |scale: &str, median_ms: f64| {
            report(
                scale,
                vec![
                    row("serve_churn/200dev_2gw/p99", median_ms),
                    row(probe, 2.0),
                ],
            )
        };
        let baseline = soak("smoke", 10.0);
        assert!(gate_against(&soak("smoke", 11.0), &baseline, 0.25).is_empty());
        assert_eq!(gate_against(&soak("smoke", 20.0), &baseline, 0.25).len(), 1);
        // A paper-scale run is not comparable to the smoke baseline.
        assert!(gate_against(&soak("paper", 20.0), &baseline, 0.25).is_empty());
    }

    #[test]
    fn gate_bounds_journal_overhead_against_the_plain_baseline_rows() {
        let probe = ext_serve_soak::CALIBRATION_ID;
        // The baseline predates the journal: plain rows only.
        let baseline = report(
            "smoke",
            vec![row("serve_churn/200dev_2gw/p99", 10.0), row(probe, 2.0)],
        );
        // Journaling within tolerance passes …
        let fine = report(
            "smoke",
            vec![
                row("serve_churn/200dev_2gw/p99", 10.0),
                row("serve_churn/200dev_2gw/journal/p99", 12.0),
                row(probe, 2.0),
            ],
        );
        assert!(gate_against(&fine, &baseline, 0.25).is_empty());
        // … but journal overhead past it is a regression of its own,
        // even when the plain row is healthy.
        let slow = report(
            "smoke",
            vec![
                row("serve_churn/200dev_2gw/p99", 10.0),
                row("serve_churn/200dev_2gw/journal/p99", 20.0),
                row(probe, 2.0),
            ],
        );
        let issues = gate_against(&slow, &baseline, 0.25);
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].to_string().contains("(journaled)"),
            "issue must name the journaled row: {}",
            issues[0]
        );
    }

    #[test]
    fn committed_baselines_go_through_the_shared_gate() {
        for file in ["scale_baseline.json", "serve_perf_baseline.json"] {
            let body = std::fs::read_to_string(golden_path(file)).expect("baseline is committed");
            let baseline: PerfReport = serde_json::from_str(&body).expect("baseline parses");
            assert_eq!(baseline.schema, SCHEMA, "{file}");
            assert!(
                gate_against(&baseline, &baseline, DEFAULT_TOLERANCE).is_empty(),
                "{file} fails against itself"
            );
            // A 2x-slower box slows the probe as much as every latency;
            // this passes only if the gate found the file's probe row.
            let slow_box = slowed(&baseline, 2.0, 2.0);
            assert!(
                gate_against(&slow_box, &baseline, DEFAULT_TOLERANCE).is_empty(),
                "{file}: the probe does not cancel a 2x-slower box"
            );
            // Twice the latency on the same probe fails every latency row.
            let slow_code = slowed(&baseline, 2.0, 1.0);
            let flagged: Vec<String> = gate_against(&slow_code, &baseline, DEFAULT_TOLERANCE)
                .into_iter()
                .map(|issue| match issue {
                    PerfIssue::Slower { id, .. } => id,
                    PerfIssue::Missing { id } => panic!("{file}: {id} reported missing"),
                })
                .collect();
            let latencies: Vec<String> = baseline
                .workloads
                .iter()
                .filter(|w| !is_calibration(&w.id) && !is_rss(&w.id))
                .map(|w| w.id.clone())
                .collect();
            assert!(!latencies.is_empty(), "{file} has no latency rows");
            assert_eq!(flagged, latencies, "{file}");
        }
    }
}
