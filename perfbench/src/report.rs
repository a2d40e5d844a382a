//! Statistics, host diagnostics and the result line.

use std::collections::BTreeMap;

/// The `p`-th percentile (0–100) by linear interpolation between ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of p99, p90 and the maximum that has at least ten samples
/// beyond it; the maximum when fewer than 100 samples exist.
pub fn tail(values: &[f64]) -> f64 {
    match values.len() {
        n if n >= 1000 => percentile(values, 99.0),
        n if n >= 100 => percentile(values, 90.0),
        _ => percentile(values, 100.0),
    }
}

/// `[min, jain, starved_share]` of a per-device EE vector; a device is
/// starved when its EE is below a tenth of the mean.
pub fn fairness(ee: &[f64]) -> [f64; 3] {
    let n = ee.len().max(1) as f64;
    let sum: f64 = ee.iter().sum();
    let sum_sq: f64 = ee.iter().map(|x| x * x).sum();
    let mean = sum / n;
    let jain = if sum_sq > 0.0 {
        sum * sum / (n * sum_sq)
    } else {
        0.0
    };
    let min = ee.iter().copied().fold(f64::INFINITY, f64::min);
    let starved = ee.iter().filter(|&&x| x < 0.1 * mean).count() as f64 / n;
    [min, jain, starved]
}

/// `VmHWM` of process `pid` (`self` for this one), MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.split_whitespace().next()?;
                kb.parse::<f64>().ok().map(|kb| kb / 1024.0)
            })
        })
        .unwrap_or(0.0)
}

/// Host state read at the start of a run, so a slow host can be told
/// apart from a slow program. Not metrics.
pub struct Host {
    nproc: usize,
    loadavg: String,
    steal_start: Option<u64>,
    total_start: Option<u64>,
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

impl Host {
    pub fn start() -> Self {
        let ticks = cpu_ticks();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_default(),
            steal_start: ticks.map(|t| t.0),
            total_start: ticks.map(|t| t.1),
        }
    }

    /// One JSON line: nproc, load average at start, steal-time delta.
    pub fn line(&self) -> String {
        let (steal, share) = match (cpu_ticks(), self.steal_start, self.total_start) {
            (Some((steal, total)), Some(s0), Some(t0)) => {
                let steal = steal.saturating_sub(s0);
                let total = total.saturating_sub(t0).max(1);
                (steal, steal as f64 / total as f64)
            }
            _ => (0, 0.0),
        };
        format!(
            "{{\"host\":{{\"nproc\":{},\"loadavg_start\":\"{}\",\"steal_ticks\":{},\"steal_share\":{:.5}}}}}",
            self.nproc, self.loadavg, steal, share
        )
    }
}

/// Metrics, operation counts and output checks of one run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one output check; a failing one is recorded with `detail`.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(detail());
        }
    }

    /// The result line over `names` (with units), which must all have
    /// been measured.
    pub fn result_line(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(tail(&v), 4.0, "fewer than 100 samples: the maximum");
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&many) - 989.01).abs() < 1e-9, "p99 of 1000 samples");
    }

    #[test]
    fn fairness_counts_devices_below_a_tenth_of_the_mean() {
        let [min, jain, starved] = fairness(&[1.0, 1.0, 1.0, 0.01]);
        assert_eq!(min, 0.01);
        assert!(jain > 0.7 && jain < 0.8);
        assert_eq!(starved, 0.25);
    }
}
