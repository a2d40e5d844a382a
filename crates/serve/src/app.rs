//! Entry points shared by the standalone binaries and the
//! `ef-lora-plan serve` subcommand.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub use ef_lora::strategy::strategy_by_name;
use lora_scenario::{catalog, ScenarioSpec};

use crate::flags::Flags;
use crate::journal::{self, FsyncPolicy, Journal, JournalRecord};
use crate::server::{serve_journaled, ServerOptions};
use crate::state::ServeState;

/// Loads the scenario selected by `--spec FILE` or `--name CATALOG`,
/// applying `--scale` and `--seed` overrides (the CLI `scenario`
/// conventions).
fn spec_from(flags: &Flags) -> Result<ScenarioSpec, String> {
    let mut spec = match (flags.get("spec"), flags.get("name")) {
        (Some(path), None) => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            lora_scenario::from_json(&body).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(name)) => catalog::scenario(name).ok_or_else(|| {
            format!(
                "unknown catalog scenario `{name}` (available: {})",
                catalog::CATALOG.join(", ")
            )
        })?,
        (Some(_), Some(_)) => return Err("--spec and --name are mutually exclusive".into()),
        (None, None) => return Err("missing --spec FILE or --name CATALOG".into()),
    };
    if let Some(scale) = flags.get("scale") {
        let factor: f64 = scale
            .parse()
            .map_err(|_| "flag --scale has an invalid value".to_string())?;
        if !factor.is_finite() || factor <= 0.0 {
            return Err("flag --scale must be a positive factor".into());
        }
        spec = catalog::scale_devices(&spec, factor);
    }
    if let Some(seed) = flags.get("seed") {
        spec.seed = seed
            .parse()
            .map_err(|_| "flag --seed has an invalid value".to_string())?;
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Builds the initial daemon state and (when `--journal` is set) its
/// write-ahead journal.
///
/// Boot is crash-only: when the journal file already exists, the daemon
/// *always* goes through [`journal::recover`] — last good snapshot (or
/// the journal's own base) plus a replay of the durable record prefix,
/// torn tail truncated. A fresh journal starts from the `--restore`
/// snapshot (base = the embedded image) or the scenario spec (base =
/// genesis), so the journal alone can always rebuild the state.
fn boot(flags: &Flags) -> Result<(ServeState, Option<Journal>), String> {
    let journal_path = flags.get("journal").map(PathBuf::from);
    let policy: FsyncPolicy = flags.parse_or("fsync", FsyncPolicy::default())?;
    let snapshot_path = flags.get("snapshot").map(PathBuf::from);

    if let Some(jpath) = &journal_path {
        if jpath.exists() {
            let recovered = journal::recover(jpath, snapshot_path.as_deref(), policy)
                .map_err(|e| e.to_string())?;
            if recovered.truncated_bytes > 0 {
                eprintln!(
                    "journal tail torn: dropped {} undecodable bytes",
                    recovered.truncated_bytes
                );
            }
            eprintln!(
                "recovered {} devices from {} (snapshot_loaded={}, replayed={})",
                recovered.state.device_count(),
                jpath.display(),
                recovered.info.snapshot_loaded,
                recovered.info.replayed
            );
            return Ok((recovered.state, Some(recovered.journal)));
        }
    }

    let strategy_name = flags.get("strategy").unwrap_or("ef-lora").to_string();
    let (state, base) = match flags.get("restore") {
        Some(path) => {
            let state =
                ServeState::restore_from_file(Path::new(path)).map_err(|e| e.to_string())?;
            eprintln!(
                "restored {} devices, {} events applied, from {path}",
                state.device_count(),
                state.events_applied()
            );
            let base = JournalRecord::Base(Box::new(state.snapshot()));
            (state, base)
        }
        None => {
            let spec = spec_from(flags)?;
            let strategy = strategy_by_name(&strategy_name)?;
            let base = JournalRecord::Genesis {
                strategy: strategy_name,
                spec: spec.clone(),
            };
            let state = ServeState::new(spec, strategy.as_ref()).map_err(|e| e.to_string())?;
            (state, base)
        }
    };
    let journal = journal_path
        .map(|jpath| Journal::create(&jpath, policy, &base).map_err(|e| e.to_string()))
        .transpose()?;
    Ok((state, journal))
}

/// The daemon: `--spec FILE | --name CATALOG | --restore SNAPSHOT`,
/// `[--scale F] [--seed N] [--strategy S] [--port P] [--snapshot PATH]`
/// `[--journal PATH] [--fsync always|batch|never]`
/// `[--read-timeout-ms N] [--max-line-bytes N]`.
///
/// Binds `127.0.0.1:PORT` (port 0 — the default — picks an ephemeral
/// port), prints `listening on ADDR` on stdout, and serves until a
/// client sends `Shutdown`. With `--journal`, an existing journal file
/// triggers crash recovery before the listener comes up.
///
/// # Errors
///
/// Flag, scenario, allocation, recovery and bind failures, as strings.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let (state, journal) = boot(&flags)?;
    let port: u16 = flags.parse_or("port", 0)?;
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scraped by scripts and the smoke job; flush before blocking.
    println!("listening on {addr}");
    use std::io::Write;
    std::io::stdout().flush().ok();
    let read_timeout_ms: u64 = flags.parse_or("read-timeout-ms", 30_000)?;
    let options = ServerOptions {
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        max_line_bytes: flags.parse_or("max-line-bytes", 1 << 20)?,
    };
    serve_journaled(listener, state, journal, &options).map_err(|e| format!("server error: {e}"))
}

/// The load generator: `--addr HOST:PORT [--events N] [--seed S]`
/// `[--min-rate EVENTS_PER_SEC] [--snapshot] [--shutdown]`
/// `[--chaos] [--retries N] [--backoff-ms N]`.
///
/// Prints the burst report as JSON on stdout. Exits with an error — the
/// CI smoke assertion — on any protocol violation or when the sustained
/// throughput falls below `--min-rate`. With `--chaos`, disconnects and
/// refused connections are survived with seeded jittered retry/backoff,
/// and the report counts events landed before vs after the restart
/// (`--snapshot`/`--shutdown`/`--min-rate` do not apply).
///
/// # Errors
///
/// Flag, connection, protocol and throughput failures, as strings.
pub fn loadgen_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["snapshot", "shutdown", "chaos"])?;
    let addr = flags
        .get("addr")
        .ok_or_else(|| "missing --addr HOST:PORT".to_string())?;
    let events: usize = flags.parse_or("events", 200)?;
    let seed: u64 = flags.parse_or("seed", 1)?;
    let min_rate: f64 = flags.parse_or("min-rate", 0.0)?;
    if flags.switch("chaos") {
        let chaos = crate::loadgen::ChaosOptions {
            retries: flags.parse_or("retries", crate::loadgen::ChaosOptions::default().retries)?,
            backoff_ms: flags.parse_or(
                "backoff-ms",
                crate::loadgen::ChaosOptions::default().backoff_ms,
            )?,
        };
        let report = crate::loadgen::run_chaos_burst(addr, seed, events, &chaos)?;
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("reports always serialize")
        );
        return Ok(());
    }
    let report = crate::loadgen::run_burst(
        addr,
        seed,
        events,
        flags.switch("snapshot"),
        flags.switch("shutdown"),
    )?;
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("reports always serialize")
    );
    if report.events_per_sec < min_rate {
        return Err(format!(
            "throughput {:.0} events/s below required {min_rate:.0}",
            report.events_per_sec
        ));
    }
    Ok(())
}
