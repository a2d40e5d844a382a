//! Crash-safe write-ahead event journal for the serve daemon.
//!
//! Snapshot-only durability loses every churn event since the last
//! explicit `Snapshot` request when the process dies. The journal closes
//! that gap with the standard WAL discipline: every state-mutating
//! request (`Churn`, `Measure`) is appended to an append-only file —
//! length-prefixed, CRC32-checksummed — *before* it is applied, and on
//! boot [`recover`] replays the surviving prefix on top of the last good
//! snapshot. Because every event's randomness is a pure function of the
//! scenario seed and the mutation counters (see
//! [`crate::ServeState::apply_churn`]), replaying a journaled request
//! reproduces the original outcome bit for bit — the recovered daemon is
//! byte-identical to one that applied exactly the durable prefix and
//! never crashed, which the chaos suite proves against the
//! [`crate::reference::ReferenceState`] oracle.
//!
//! # File format
//!
//! ```text
//! [8-byte magic "EFLJRNL1"]
//! [len: u32 LE][crc32: u32 LE][payload: `len` bytes of JSON] …
//! ```
//!
//! The first record of every journal is a *base*: [`JournalRecord::Genesis`]
//! on a fresh boot (strategy name + scenario spec — enough to rebuild the
//! initial state from nothing) or [`JournalRecord::Base`] (a full embedded
//! snapshot) after a snapshot truncates the log. Either way the journal
//! alone suffices to recover, so a corrupt snapshot file degrades to
//! journal-only recovery instead of data loss.
//!
//! # Torn tails vs corruption
//!
//! A crash can leave a half-written frame at the end of the file; that is
//! the *expected* artefact, and [`scan`] truncates it: records are decoded
//! until the first frame that is incomplete, fails its CRC or does not
//! parse, and everything from that offset on is dropped. Recovery is
//! therefore always to an exact durable *prefix*. What scan refuses to
//! guess about is the head: a missing or mangled magic means the file is
//! not a journal at all and surfaces as [`JournalError::Corrupt`] — never
//! a panic, never a silently wrong state.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use lora_scenario::ScenarioSpec;

use crate::protocol::Request;
use crate::state::{RecoveryInfo, ServeState, Snapshot};

/// Magic bytes at offset 0 of every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"EFLJRNL1";

/// Upper bound on a single record's payload, as a sanity check against
/// bit-flipped length prefixes allocating absurd buffers during scan.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Appends between fsyncs under [`FsyncPolicy::Batch`]. Connection
/// close and shutdown sync unconditionally, so the un-synced window is
/// bounded by both count and connection lifetime.
const BATCH_SYNC_EVERY: u32 = 32;

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`), built at compile
/// time so the vendored-only build needs no crc crate.
const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes` — the checksum of journal frames and snapshot
/// file bodies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged request is durable.
    Always,
    /// `fsync` every `BATCH_SYNC_EVERY` appends and at connection
    /// close — bounded loss window, near-`Never` throughput.
    #[default]
    Batch,
    /// Never `fsync` explicitly; durability rides on the OS page cache.
    /// Still recovers exactly the prefix that reached disk.
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, String> {
        match raw {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected always, batch or never)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Base record of a journal started from nothing: the strategy name
    /// and scenario spec reproduce the initial allocation exactly.
    Genesis {
        /// CLI name of the allocation strategy
        /// (see [`crate::app::strategy_by_name`]).
        strategy: String,
        /// The scenario the daemon was loaded from.
        spec: ScenarioSpec,
    },
    /// Base record of a journal truncated by a snapshot: the full image,
    /// embedded, so the journal stays self-contained even if the
    /// snapshot file is later corrupted.
    Base(Box<Snapshot>),
    /// One state-mutating request, appended *before* it was applied.
    Mutation {
        /// [`crate::ServeState::mutations_applied`] at append time; lets
        /// replay skip records already folded into a newer base and
        /// detect gaps.
        applied: u64,
        /// The request itself (`Churn` or `Measure`).
        request: Request,
    },
}

/// Typed journal failure. Recovery never panics on hostile bytes: every
/// way a journal can disappoint maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// What failed, e.g. `read`, `append`, `sync`.
        op: &'static str,
        /// The underlying error, rendered.
        message: String,
    },
    /// The file cannot be trusted as a journal: bad magic, no base
    /// record, or a base that does not reconstruct.
    Corrupt {
        /// Path involved.
        path: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A mutation record's counter does not line up with the state being
    /// replayed into — the journal and the snapshot are from different
    /// histories.
    Gap {
        /// Mutations the replaying state had applied.
        expected: u64,
        /// The record's `applied` stamp.
        found: u64,
    },
    /// An fsync failed, or a previous append failed *and* rolling the
    /// file back to the last record boundary failed too. The journal
    /// refuses further appends and syncs rather than write frames at an
    /// unknown offset or trust an fsync retried after a failure.
    Broken {
        /// What broke the journal.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, op, message } => {
                write!(f, "journal {op} failed for {path}: {message}")
            }
            JournalError::Corrupt { path, reason } => {
                write!(f, "journal {path} is corrupt: {reason}")
            }
            JournalError::Gap { expected, found } => write!(
                f,
                "journal gap: record stamped {found} mutations, state has {expected} \
                 (journal and snapshot disagree)"
            ),
            JournalError::Broken { reason } => {
                write!(f, "journal is broken and refuses appends: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Result of [`scan`]: the decodable record prefix and where it ends.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedJournal {
    /// Records decoded, in append order.
    pub records: Vec<JournalRecord>,
    /// File offset one past the last good record — where appending
    /// resumes after recovery.
    pub durable_bytes: u64,
    /// Bytes of torn/undecodable tail past `durable_bytes` (dropped).
    pub truncated_bytes: u64,
}

/// An open, appendable journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Length of the prefix of accepted frames — the rollback point when
    /// an append fails partway or its fsync fails.
    bytes: u64,
    policy: FsyncPolicy,
    /// Appends since the last sync (drives [`FsyncPolicy::Batch`]).
    pending: u32,
    /// Set when an fsync failed or a failed append could not be rolled
    /// back; fail-closed.
    broken: Option<String>,
    /// Fail point: the next fsync fails instead of reaching the disk.
    #[cfg(test)]
    fail_next_sync: bool,
}

impl Journal {
    /// Creates a fresh journal at `path` holding only `base`, replacing
    /// any previous file **atomically** (tmp + sync + rename), so a
    /// crash mid-create leaves either the old journal or the new one.
    ///
    /// # Errors
    ///
    /// Filesystem failures, typed.
    pub fn create(
        path: &Path,
        policy: FsyncPolicy,
        base: &JournalRecord,
    ) -> Result<Self, JournalError> {
        let mut contents = Vec::with_capacity(256);
        contents.extend_from_slice(&JOURNAL_MAGIC);
        contents.extend_from_slice(&encode_frame(base));

        let io = |op: &'static str, p: &Path| {
            let p = p.display().to_string();
            move |e: std::io::Error| JournalError::Io {
                path: p.clone(),
                op,
                message: e.to_string(),
            }
        };
        let tmp = tmp_path(path);
        let mut file = File::create(&tmp).map_err(io("create", &tmp))?;
        file.write_all(&contents).map_err(io("write", &tmp))?;
        file.sync_all().map_err(io("sync", &tmp))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io("rename", path))?;
        sync_parent_dir(path)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io("open", path))?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file,
            bytes: contents.len() as u64,
            policy,
            pending: 0,
            broken: None,
            #[cfg(test)]
            fail_next_sync: false,
        };
        journal
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| journal.io("seek", e))?;
        Ok(journal)
    }

    /// Reopens an existing journal for appending after [`scan`] decided
    /// where the good prefix ends: the torn tail (if any) is truncated
    /// away and the write cursor lands at `durable_bytes`.
    ///
    /// # Errors
    ///
    /// Filesystem failures, typed.
    pub fn resume(
        path: &Path,
        policy: FsyncPolicy,
        durable_bytes: u64,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalError::Io {
                path: path.display().to_string(),
                op: "open",
                message: e.to_string(),
            })?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file,
            bytes: durable_bytes,
            policy,
            pending: 0,
            broken: None,
            #[cfg(test)]
            fail_next_sync: false,
        };
        journal
            .file
            .set_len(durable_bytes)
            .map_err(|e| journal.io("truncate", e))?;
        journal
            .file
            .seek(SeekFrom::Start(durable_bytes))
            .map_err(|e| journal.io("seek", e))?;
        Ok(journal)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the fully-framed (appendable-after) prefix.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record and applies the fsync policy.
    ///
    /// Write-ahead contract: callers append the mutation *before*
    /// applying it, and refuse to apply when this fails — the journal
    /// must never lag the state. A failed append rolls the file back to
    /// the last record boundary so the next append starts on a clean
    /// frame; if even the rollback fails, the journal marks itself
    /// [`JournalError::Broken`] and rejects everything from then on.
    /// When the write lands but the policy's fsync fails, the frame is
    /// rolled back the same way — recovery must not replay a mutation
    /// the caller refused — and the journal is marked broken: after a
    /// failed fsync the kernel may have dropped the dirty pages, so a
    /// retried fsync proves nothing.
    ///
    /// # Errors
    ///
    /// Filesystem failures and the broken state, typed.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.check_unbroken()?;
        let frame = encode_frame(record);
        if let Err(e) = self.file.write_all(&frame) {
            let error = self.io("append", e);
            self.roll_back(&error);
            return Err(error);
        }
        self.pending += 1;
        let synced = match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Batch if self.pending >= BATCH_SYNC_EVERY => self.sync(),
            FsyncPolicy::Batch | FsyncPolicy::Never => Ok(()),
        };
        if let Err(error) = synced {
            self.roll_back(&error);
            return Err(error);
        }
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Truncates the file to the last accepted frame after `error` and
    /// moves the write cursor there. A rollback that fails breaks the
    /// journal.
    fn roll_back(&mut self, error: &JournalError) {
        if let Err(rollback) = self
            .file
            .set_len(self.bytes)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.bytes)).map(|_| ()))
        {
            self.broken = Some(format!("{error}; rollback failed: {rollback}"));
        }
    }

    /// Forces appended records to stable storage (no-op when nothing is
    /// pending). A failed fsync marks the journal
    /// [`JournalError::Broken`]: it is never retried.
    ///
    /// # Errors
    ///
    /// Filesystem failures and the broken state, typed.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.check_unbroken()?;
        if self.pending == 0 {
            return Ok(());
        }
        if let Err(e) = self.sync_data() {
            let error = self.io("sync", e);
            self.broken = Some(error.to_string());
            return Err(error);
        }
        self.pending = 0;
        Ok(())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_sync) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        self.file.sync_data()
    }

    fn check_unbroken(&self) -> Result<(), JournalError> {
        match &self.broken {
            Some(reason) => Err(JournalError::Broken {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Truncates the journal down to a fresh `base` record — called
    /// right after a snapshot lands durably, so the log only ever holds
    /// history *since* the newest base. Atomic like [`Journal::create`]:
    /// a crash mid-reset leaves the old journal, whose records the next
    /// recovery simply skips (their `applied` stamps predate the
    /// snapshot).
    ///
    /// # Errors
    ///
    /// Filesystem failures, typed.
    pub fn reset(&mut self, base: &JournalRecord) -> Result<(), JournalError> {
        let fresh = Journal::create(&self.path, self.policy, base)?;
        *self = fresh;
        Ok(())
    }

    fn io(&self, op: &'static str, e: std::io::Error) -> JournalError {
        JournalError::Io {
            path: self.path.display().to_string(),
            op,
            message: e.to_string(),
        }
    }
}

/// Where atomic journal writes stage their bytes. Lives next to the
/// target so the rename stays within one filesystem.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs the parent directory so a rename into it is durable.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    File::open(parent)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| JournalError::Io {
            path: parent.display().to_string(),
            op: "sync-dir",
            message: e.to_string(),
        })
}

/// Frames one record: `[len u32 LE][crc32 u32 LE][payload]`.
fn encode_frame(record: &JournalRecord) -> Vec<u8> {
    let payload = serde_json::to_string(record).expect("journal records always serialize");
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes the longest good record prefix of the journal at `path`.
///
/// Everything after the first incomplete, checksum-failing or unparsable
/// frame is reported as truncated tail — the crash artefact recovery
/// drops. The magic header is the one thing scan refuses to repair:
/// without it the file is not a journal.
///
/// # Errors
///
/// Filesystem failures and a missing/mangled magic header, typed. Torn
/// tails are *not* errors.
pub fn scan(path: &Path) -> Result<ScannedJournal, JournalError> {
    let data = std::fs::read(path).map_err(|e| JournalError::Io {
        path: path.display().to_string(),
        op: "read",
        message: e.to_string(),
    })?;
    if data.len() < JOURNAL_MAGIC.len() || data[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt {
            path: path.display().to_string(),
            reason: format!(
                "missing magic header {:?} (is this a journal?)",
                std::str::from_utf8(&JOURNAL_MAGIC).expect("magic is ASCII")
            ),
        });
    }
    let mut records = Vec::new();
    let mut offset = JOURNAL_MAGIC.len();
    // Decode until the first frame that is incomplete or damaged in any
    // way — everything after it is the torn tail.
    while let Some(header) = data.get(offset..offset + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            break; // bit-flipped length prefix
        }
        let Some(payload) = data.get(offset + 8..offset + 8 + len as usize) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // torn or flipped payload
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<JournalRecord>(text) else {
            break;
        };
        records.push(record);
        offset += 8 + len as usize;
    }
    Ok(ScannedJournal {
        records,
        durable_bytes: offset as u64,
        truncated_bytes: (data.len() - offset) as u64,
    })
}

/// Replays scanned records into `state`, returning how many mutations
/// were applied.
///
/// Records whose `applied` stamp predates the state's mutation counter
/// are skipped — they are history the base (a newer snapshot) already
/// contains. A stamp *ahead* of the counter is a [`JournalError::Gap`]:
/// the journal and the base are from different histories and silently
/// continuing would diverge. Requests that failed when first applied
/// fail identically on replay (determinism) and advance nothing.
///
/// # Errors
///
/// Gaps, mid-journal base records and non-mutating requests, typed.
pub fn replay(state: &mut ServeState, records: &[JournalRecord]) -> Result<u64, JournalError> {
    let corrupt = |reason: String| JournalError::Corrupt {
        path: "<journal records>".to_string(),
        reason,
    };
    let mut replayed = 0u64;
    for (i, record) in records.iter().enumerate() {
        match record {
            JournalRecord::Genesis { .. } | JournalRecord::Base(_) => {
                if i != 0 {
                    return Err(corrupt(format!(
                        "base record at position {i} (only position 0 holds bases)"
                    )));
                }
            }
            JournalRecord::Mutation { applied, request } => {
                let current = state.mutations_applied();
                if *applied < current {
                    continue; // already folded into the base snapshot
                }
                if *applied > current {
                    return Err(JournalError::Gap {
                        expected: current,
                        found: *applied,
                    });
                }
                match request {
                    // Deterministic re-execution: failures re-fail
                    // exactly as they did live, so the outcome needs no
                    // inspection here.
                    Request::Churn(event) => drop(state.apply_churn(event)),
                    Request::Measure => drop(state.measure()),
                    other => {
                        return Err(corrupt(format!(
                            "non-mutating request {other:?} journaled as a mutation"
                        )))
                    }
                }
                replayed += 1;
            }
        }
    }
    Ok(replayed)
}

/// A recovered daemon: the rebuilt state and the journal, reopened for
/// appending at the durable boundary.
#[derive(Debug)]
pub struct Recovered {
    /// The state after base + replay, recovery info stamped.
    pub state: ServeState,
    /// The journal, truncated to the good prefix and appendable.
    pub journal: Journal,
    /// What recovery did (also surfaced on the wire in `Info`).
    pub info: RecoveryInfo,
    /// Torn-tail bytes dropped from the journal.
    pub truncated_bytes: u64,
}

/// Boot-time recovery: scan the journal, pick a base, replay, resume.
///
/// The base is the snapshot at `snapshot_path` when one loads cleanly;
/// a missing or [corrupt](crate::state::SnapshotError::Corrupt) snapshot
/// degrades to the journal's own base record (every journal starts with
/// one), making recovery journal-only rather than impossible. Replay
/// then applies every durable mutation the base does not already
/// contain, and the journal reopens for appending with its torn tail
/// truncated.
///
/// # Errors
///
/// Unscannable journals, journals without a usable base, replay gaps and
/// filesystem failures, typed. Never panics on hostile bytes.
pub fn recover(
    journal_path: &Path,
    snapshot_path: Option<&Path>,
    policy: FsyncPolicy,
) -> Result<Recovered, JournalError> {
    let scanned = scan(journal_path)?;
    let corrupt = |reason: String| JournalError::Corrupt {
        path: journal_path.display().to_string(),
        reason,
    };

    let mut snapshot_loaded = false;
    let mut state: Option<ServeState> = None;
    if let Some(path) = snapshot_path {
        if path.exists() {
            match ServeState::restore_from_file(path) {
                Ok(s) => {
                    snapshot_loaded = true;
                    state = Some(s);
                }
                Err(e) => eprintln!("{e}; falling back to journal-only recovery"),
            }
        }
    }
    let mut state = match state {
        Some(state) => state,
        None => match scanned.records.first() {
            Some(JournalRecord::Genesis { strategy, spec }) => {
                let strategy = crate::app::strategy_by_name(strategy).map_err(corrupt)?;
                ServeState::new(spec.clone(), strategy.as_ref())
                    .map_err(|e| corrupt(format!("genesis record does not allocate: {e}")))?
            }
            Some(JournalRecord::Base(snapshot)) => ServeState::restore((**snapshot).clone())
                .map_err(|e| corrupt(format!("base snapshot record does not restore: {e}")))?,
            Some(JournalRecord::Mutation { .. }) => {
                return Err(corrupt(
                    "journal starts with a mutation instead of a base record".to_string(),
                ))
            }
            None => {
                return Err(corrupt(
                    "journal holds no decodable records and no snapshot is available".to_string(),
                ))
            }
        },
    };

    let replayed = replay(&mut state, &scanned.records)?;
    let info = RecoveryInfo {
        snapshot_loaded,
        replayed,
    };
    state.set_recovery(info);
    let journal = Journal::resume(journal_path, policy, scanned.durable_bytes)?;
    Ok(Recovered {
        state,
        journal,
        info,
        truncated_bytes: scanned.truncated_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use ef_lora::EfLora;
    use lora_scenario::catalog;
    use lora_scenario::spec::{ChurnEvent, ChurnKind};

    fn smoke_spec() -> ScenarioSpec {
        catalog::scale_devices(&catalog::churn_heavy(), 0.15)
    }

    fn genesis() -> JournalRecord {
        JournalRecord::Genesis {
            strategy: "ef-lora".to_string(),
            spec: smoke_spec(),
        }
    }

    fn mutation(applied: u64, count: usize) -> JournalRecord {
        JournalRecord::Mutation {
            applied,
            request: Request::Churn(ChurnEvent {
                epoch: applied as u32 + 1,
                event: ChurnKind::Join {
                    class: "bursty".to_string(),
                    count,
                },
            }),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn fsync_policy_parses_the_cli_spellings() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("batch".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Batch);
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Batch.to_string(), "batch");
    }

    #[test]
    fn append_scan_round_trips_records() {
        let dir = TempDir::new("journal-roundtrip");
        let path = dir.path().join("wal.journal");
        let mut journal = Journal::create(&path, FsyncPolicy::Never, &genesis()).unwrap();
        let records = vec![mutation(0, 2), mutation(1, 3), mutation(2, 1)];
        for record in &records {
            journal.append(record).unwrap();
        }
        journal.sync().unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 4);
        assert_eq!(scanned.records[0], genesis());
        assert_eq!(&scanned.records[1..], records.as_slice());
        assert_eq!(scanned.durable_bytes, journal.bytes());
        assert_eq!(scanned.truncated_bytes, 0);
    }

    #[test]
    fn scan_truncates_torn_tails_at_every_boundary_kind() {
        let dir = TempDir::new("journal-torn");
        let path = dir.path().join("wal.journal");
        let mut journal = Journal::create(&path, FsyncPolicy::Never, &genesis()).unwrap();
        journal.append(&mutation(0, 2)).unwrap();
        let two_records = journal.bytes();
        journal.append(&mutation(1, 3)).unwrap();
        journal.sync().unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Cutting anywhere strictly inside the last frame drops exactly
        // that frame.
        for cut in two_records..pristine.len() as u64 {
            std::fs::write(&path, &pristine[..cut as usize]).unwrap();
            let scanned = scan(&path).unwrap();
            assert_eq!(scanned.records.len(), 2, "cut at {cut}");
            assert_eq!(scanned.durable_bytes, two_records, "cut at {cut}");
            assert_eq!(scanned.truncated_bytes, cut - two_records, "cut at {cut}");
        }
    }

    #[test]
    fn scan_rejects_files_without_the_magic_header() {
        let dir = TempDir::new("journal-magic");
        let path = dir.path().join("wal.journal");
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(scan(&path), Err(JournalError::Corrupt { .. })));
        std::fs::write(&path, b"EFLJ").unwrap(); // shorter than the magic
        assert!(matches!(scan(&path), Err(JournalError::Corrupt { .. })));
    }

    #[test]
    fn failed_fsync_rolls_the_frame_back_and_breaks_the_journal() {
        let dir = TempDir::new("journal-fsync");
        let path = dir.path().join("wal.journal");
        let mut journal = Journal::create(&path, FsyncPolicy::Always, &genesis()).unwrap();
        let a = mutation(0, 2);
        journal.append(&a).unwrap();
        let after_a = journal.bytes();

        journal.fail_next_sync = true;
        assert!(matches!(
            journal.append(&mutation(1, 3)),
            Err(JournalError::Io { op: "sync", .. })
        ));
        assert_eq!(journal.bytes(), after_a);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), after_a);
        assert!(matches!(
            journal.append(&mutation(1, 3)),
            Err(JournalError::Broken { .. })
        ));
        assert!(matches!(journal.sync(), Err(JournalError::Broken { .. })));
        drop(journal);

        let mut live = ServeState::new(smoke_spec(), &EfLora::default()).unwrap();
        let JournalRecord::Mutation {
            request: Request::Churn(event),
            ..
        } = &a
        else {
            unreachable!()
        };
        live.apply_churn(event).unwrap();
        assert_eq!(scan(&path).unwrap().records, vec![genesis(), a]);
        let recovered = recover(&path, None, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered.info.replayed, 1);
        assert_eq!(recovered.state.snapshot(), live.snapshot());
    }

    #[test]
    fn failed_explicit_sync_breaks_the_journal() {
        let dir = TempDir::new("journal-sync");
        let path = dir.path().join("wal.journal");
        let mut journal = Journal::create(&path, FsyncPolicy::Batch, &genesis()).unwrap();
        journal.append(&mutation(0, 2)).unwrap();
        let after_a = journal.bytes();
        journal.fail_next_sync = true;
        assert!(matches!(
            journal.sync(),
            Err(JournalError::Io { op: "sync", .. })
        ));
        // The frame was acknowledged before the sync, so it stays.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), after_a);
        assert!(matches!(journal.sync(), Err(JournalError::Broken { .. })));
        assert!(matches!(
            journal.append(&mutation(1, 1)),
            Err(JournalError::Broken { .. })
        ));
    }

    #[test]
    fn reset_truncates_down_to_the_new_base() {
        let dir = TempDir::new("journal-reset");
        let path = dir.path().join("wal.journal");
        let mut journal = Journal::create(&path, FsyncPolicy::Never, &genesis()).unwrap();
        for i in 0..5 {
            journal.append(&mutation(i, 1)).unwrap();
        }
        let state = ServeState::new(smoke_spec(), &EfLora::default()).unwrap();
        let base = JournalRecord::Base(Box::new(state.snapshot()));
        journal.reset(&base).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, vec![base]);
        journal.append(&mutation(0, 2)).unwrap();
        journal.sync().unwrap();
        assert_eq!(scan(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn replay_skips_pre_base_history_and_detects_gaps() {
        let mut state = ServeState::new(smoke_spec(), &EfLora::default()).unwrap();
        let JournalRecord::Mutation { request, .. } = mutation(0, 2) else {
            unreachable!()
        };
        let Request::Churn(event) = &request else {
            unreachable!()
        };
        state.apply_churn(event).unwrap();
        // Stamp 0 predates the state's counter (1): skipped, not replayed.
        let replayed = replay(&mut state, &[mutation(0, 2)]).unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(state.mutations_applied(), 1);
        // Stamp 2 is ahead of the counter: a gap, typed.
        assert_eq!(
            replay(&mut state, &[mutation(2, 1)]),
            Err(JournalError::Gap {
                expected: 1,
                found: 2
            })
        );
        // Stamp 1 lines up: replayed.
        assert_eq!(replay(&mut state, &[mutation(1, 3)]).unwrap(), 1);
        assert_eq!(state.mutations_applied(), 2);
    }

    #[test]
    fn recover_reproduces_the_live_state_exactly() {
        let dir = TempDir::new("journal-recover");
        let path = dir.path().join("wal.journal");
        let mut live = ServeState::new(smoke_spec(), &EfLora::default()).unwrap();
        let mut journal = Journal::create(&path, FsyncPolicy::Never, &genesis()).unwrap();
        for i in 0..6u64 {
            let record = mutation(i, (i as usize % 3) + 1);
            journal.append(&record).unwrap();
            let JournalRecord::Mutation {
                request: Request::Churn(event),
                ..
            } = &record
            else {
                unreachable!()
            };
            live.apply_churn(event).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        let recovered = recover(&path, None, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.state.snapshot(), live.snapshot());
        assert_eq!(
            recovered.info,
            RecoveryInfo {
                snapshot_loaded: false,
                replayed: 6
            }
        );
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.state.recovery(), Some(recovered.info));
    }

    #[test]
    fn recover_prefers_a_good_snapshot_and_survives_a_corrupt_one() {
        let dir = TempDir::new("journal-fallback");
        let jpath = dir.path().join("wal.journal");
        let spath = dir.path().join("snap.json");
        let mut live = ServeState::new(smoke_spec(), &EfLora::default()).unwrap();
        let mut journal = Journal::create(&jpath, FsyncPolicy::Never, &genesis()).unwrap();
        for i in 0..4u64 {
            let record = mutation(i, 2);
            journal.append(&record).unwrap();
            let JournalRecord::Mutation {
                request: Request::Churn(event),
                ..
            } = &record
            else {
                unreachable!()
            };
            live.apply_churn(event).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        live.snapshot_to_file(&spath).unwrap();

        // Snapshot loads: zero replays (all four records predate it).
        let recovered = recover(&jpath, Some(&spath), FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.state.snapshot(), live.snapshot());
        assert_eq!(
            recovered.info,
            RecoveryInfo {
                snapshot_loaded: true,
                replayed: 0
            }
        );

        // Snapshot corrupted in place: journal-only recovery, same state.
        let mut bytes = std::fs::read(&spath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&spath, &bytes).unwrap();
        let recovered = recover(&jpath, Some(&spath), FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.state.snapshot(), live.snapshot());
        assert_eq!(
            recovered.info,
            RecoveryInfo {
                snapshot_loaded: false,
                replayed: 4
            }
        );
    }
}
