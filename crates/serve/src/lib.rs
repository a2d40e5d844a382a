//! Always-on allocation daemon for EF-LoRa.
//!
//! The paper's Section III-E motivates incremental adjustment under
//! churn as the way to avoid "interruptions to the network operations";
//! this crate turns the batch machinery into the network-server-resident
//! deployment shape that implies (cf. FADR, arXiv:1801.00522, and
//! max-min throughput allocation, arXiv:1904.12300):
//!
//! * a `std::net`-only JSON-lines TCP server ([`server`]) holding the
//!   live allocation in memory;
//! * churn events — the [`lora_scenario::spec::ChurnEvent`] timeline
//!   type verbatim as wire schema — applied through
//!   [`ef_lora::IncrementalAllocator`] ([`protocol`], [`state`]);
//! * query endpoints for per-device [`lora_phy::TxConfig`], model
//!   min-EE/Jain, and degradation status from
//!   [`ef_lora::ResilienceController`];
//! * snapshot/restore to disk for crash recovery, *including* the
//!   resilience baseline, so a daemon restarted mid-fault still detects
//!   degradation against the healthy minimum EE ([`state::Snapshot`]);
//! * a crash-safe write-ahead event journal ([`journal`]): mutations are
//!   appended (CRC32-framed) *before* they apply, and boot-time recovery
//!   replays the durable prefix byte-identically — a SIGKILL at any byte
//!   boundary loses only what never reached disk;
//! * a seeded load generator ([`loadgen`]) for soak tests and the CI
//!   smoke job.
//!
//! Two binaries ship with the crate: `ef-lora-serve` (the daemon) and
//! `ef-lora-loadgen` (the client). See the repository README for the
//! quick-start and DESIGN.md §12 for the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod flags;
pub mod journal;
pub mod loadgen;
pub mod protocol;
pub mod reference;
pub mod server;
pub mod state;

#[cfg(test)]
#[path = "../tests/support/temp_dir.rs"]
mod temp_dir;

pub use journal::{FsyncPolicy, Journal, JournalError, JournalRecord};
pub use protocol::{Request, Response};
pub use server::{respond, serve, serve_journaled, ServerOptions};
pub use state::{RecoveryInfo, ServeState, Snapshot, SnapshotError, SNAPSHOT_SCHEMA};
