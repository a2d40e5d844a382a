//! The repository's benchmark: three workloads, one per shape the system
//! ships, each checked for correct output.
//!
//! ```text
//! perfbench --workload serve-1k|plan-10k|paper-1k --seed N --seconds S --trace 0|1
//!           --daemon PATH --workdir DIR
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it makes a separate traced run of the same workload and
//! seed and prints the per-layer metrics. The last line of standard
//! output is the result object. See `README.md` beside this package for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

mod paper;
mod plan;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

use report::{Host, Outcome};

/// End-to-end metrics, printed by every untraced run. The meaning of each
/// per workload is in `README.md`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("alloc_ms", "ms"),
    ("alloc_tail_ms", "ms"),
    ("eval_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("jain", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never enters reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("serve.state.boot_ms", "ms"),
    ("serve.protocol.self_ms", "ms"),
    ("serve.journal.append_self_ms", "ms"),
    ("serve.journal.append_p99_us", "us"),
    ("serve.journal.bytes", "bytes"),
    ("serve.state.apply_self_ms", "ms"),
    ("serve.state.apply_p50_us", "us"),
    ("serve.state.apply_p99_us", "us"),
    ("core.incremental.candidates", "count"),
    ("core.incremental.reconfigured", "count"),
    ("core.incremental.reconfigured_per_kcand", "1/kcand"),
    ("lora-model.evaluate_p50_us", "us"),
    ("serve.lookup_rtt_p50_us", "us"),
    ("serve.lookup_rtt_p99_us", "us"),
    ("serve.query_p99_ms", "ms"),
    ("core.spatial.allocate_ms", "ms"),
    ("core.spatial.allocate_1w_ms", "ms"),
    ("lora-parallel.speedup", "ratio"),
    ("core.spatial.cells", "count"),
    ("core.spatial.candidates", "count"),
    ("core.spatial.candidates_per_s", "1/s"),
    ("core.spatial.boundary_moves", "count"),
    ("core.spatial.tail_moves", "count"),
    ("core.spatial.evaluate_ms", "ms"),
    ("lora-spatial.grid_ms", "ms"),
    ("lora-spatial.occupied_cells", "count"),
    ("lora-model.build_ms", "ms"),
    ("core.greedy.allocate_ms", "ms"),
    ("core.greedy.passes", "count"),
    ("core.greedy.candidates", "count"),
    ("core.greedy.moves", "count"),
    ("core.greedy.candidates_per_s", "1/s"),
    ("lora-sim.build_ms", "ms"),
    ("lora-sim.epoch_ms", "ms"),
    ("lora-sim.attempts", "count"),
    ("lora-sim.tx_per_s", "1/s"),
    ("lora-sim.decoded_share", "ratio"),
    ("lora-sim.delivered_share", "ratio"),
    ("lora-sim.sinr_failures", "count"),
    ("lora-sim.demod_refused", "count"),
    ("lora-parallel.utilization", "ratio"),
    ("conformance.check_ms", "ms"),
    ("output.min_ee", "bits/mJ"),
    ("output.starved_share", "ratio"),
    ("trace.other_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Worker threads every workload uses, set explicitly (never through
/// `EF_LORA_THREADS`).
pub const WORKERS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, raw: String| -> Result<u64, String> {
        raw.parse()
            .map_err(|_| format!("{flag} must be a whole number, got `{raw}`"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed,
        seconds,
        trace,
        daemon: PathBuf::from(get("--daemon")?),
        workdir: PathBuf::from(get("--workdir")?),
    })
}

/// SplitMix64: derives independent sub-seeds and stream draws from the
/// run's seed.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut mix = Mix(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        mix.draw();
        mix
    }

    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        std::process::exit(2);
    }
    let host = Host::start();
    let run = match args.workload.as_str() {
        "serve-1k" => serve::run(&args),
        "plan-10k" => plan::run(&args),
        "paper-1k" => paper::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (expected serve-1k, plan-10k or paper-1k)"
        )),
    };
    let mut outcome: Outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        for &(name, _) in names {
            outcome.metrics.entry(name).or_insert(0.0);
        }
    }
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<44} {value:>16.6e} {unit}");
        } else {
            println!("{name:<44} {value:>16.6} {unit}");
        }
    }
    println!("{}", host.line());
    let line = outcome.result_line(names);
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{line}");
    if !outcome.problems.is_empty() {
        std::process::exit(3);
    }
}
