//! Chaos harness for the write-ahead journal: kill-at-any-byte recovery.
//!
//! A journaled daemon drives a deterministic mixed burst (churn +
//! measurement windows), then the journal file is truncated and
//! bit-flipped at hundreds of offsets. The invariant under attack:
//! recovery either rebuilds **exactly** the durable record prefix —
//! proven byte-identical, query by query, against a from-scratch
//! [`ReferenceState`] replay of that same prefix — or fails with a typed
//! [`JournalError`]. Never a panic, never a silently diverged state.
//!
//! The protocol-decode fuzz battery lives here too: hostile request
//! lines (random bytes, truncated JSON, pathological nesting) must come
//! back as in-band `Response::Error` without touching the state.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use ef_lora::EfLora;
use ef_lora_serve::journal::{recover, scan, FsyncPolicy, Journal, JournalError, JournalRecord};
use ef_lora_serve::protocol::{decode, encode, Request, Response};
use ef_lora_serve::reference::ReferenceState;
use ef_lora_serve::server::{handle_line, respond, respond_journaled};
use ef_lora_serve::{loadgen, RecoveryInfo, ServeState, ServerOptions, Snapshot};
use lora_scenario::catalog;
use lora_scenario::ScenarioSpec;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

#[path = "support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

/// Seed of the fixture burst and of the offset/bit sampling streams.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Churn events in the fixture burst (plus two measurement windows).
const FIXTURE_EVENTS: usize = 30;

/// The pristine journaled run every corruption case perturbs.
struct Fixture {
    /// Journal bytes after the full burst (synced, no torn tail).
    pristine: Vec<u8>,
    /// Scanned records of `pristine`: Genesis + one per mutation.
    records: Vec<JournalRecord>,
    /// The scenario spec (as embedded in the Genesis record).
    spec: ScenarioSpec,
    /// Snapshot of the live state after the full burst.
    live: Snapshot,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // The fixture is a static, which is never dropped, so it keeps
        // the journal's bytes and not its directory.
        let dir = TempDir::new("chaos-fixture");
        let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.15);
        let options = ServerOptions::default();
        let mut state = ServeState::new(spec.clone(), &EfLora::default()).unwrap();
        let path = dir.path().join("pristine.journal");
        let base = JournalRecord::Genesis {
            strategy: "ef-lora".to_string(),
            spec: spec.clone(),
        };
        let mut journal = Some(Journal::create(&path, FsyncPolicy::Never, &base).unwrap());

        let classes = state.class_names();
        for (i, event) in loadgen::generate_events(CHAOS_SEED, FIXTURE_EVENTS, &classes)
            .into_iter()
            .enumerate()
        {
            let (response, _) =
                respond_journaled(&mut state, &options, &mut journal, Request::Churn(event));
            assert!(
                matches!(response, Response::Churned { .. }),
                "fixture burst must apply cleanly, got {response:?}"
            );
            if i == 9 || i == 19 {
                let (response, _) =
                    respond_journaled(&mut state, &options, &mut journal, Request::Measure);
                assert!(
                    matches!(response, Response::Measured { .. }),
                    "got {response:?}"
                );
            }
        }
        journal.as_mut().unwrap().sync().unwrap();
        drop(journal);

        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.truncated_bytes, 0);
        assert_eq!(scanned.records.len(), FIXTURE_EVENTS + 2 + 1);
        Fixture {
            pristine: std::fs::read(&path).unwrap(),
            records: scanned.records,
            spec,
            live: state.snapshot(),
        }
    })
}

/// A journal path in a directory of its own (tests and proptest cases
/// run concurrently), removed when the returned guard drops.
fn scratch_journal(tag: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new("chaos");
    let path = dir.path().join(format!("{tag}.journal"));
    (dir, path)
}

/// The query battery compared byte-for-byte between a recovered daemon
/// and the oracle.
fn battery_requests() -> Vec<Request> {
    vec![
        Request::Info,
        Request::Metrics,
        Request::Status,
        Request::Device { index: 0 },
        Request::Device { index: 7 },
    ]
}

/// What the oracle says a recovery to `prefix_len` records must serve.
#[derive(Clone)]
struct OracleExpect {
    snapshot: Snapshot,
    battery: Vec<String>,
    replayed: u64,
}

/// From-scratch [`ReferenceState`] replay of the first `prefix_len`
/// fixture records — the ground truth for kill-at-that-point recovery.
/// Memoised: the sweep hits the same prefix lengths repeatedly.
fn oracle_expect(prefix_len: usize) -> OracleExpect {
    static CACHE: OnceLock<Mutex<HashMap<usize, OracleExpect>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&prefix_len) {
        return hit.clone();
    }
    let fx = fixture();
    let mut oracle = ReferenceState::new(fx.spec.clone(), &EfLora::default()).unwrap();
    let mut replayed = 0u64;
    for record in &fx.records[..prefix_len] {
        if let JournalRecord::Mutation { request, .. } = record {
            match request {
                Request::Churn(event) => drop(oracle.apply_churn(event)),
                Request::Measure => drop(oracle.measure()),
                other => panic!("non-mutating {other:?} in fixture journal"),
            }
            replayed += 1;
        }
    }
    oracle.set_recovery(Some(RecoveryInfo {
        snapshot_loaded: false,
        replayed,
    }));
    let battery = battery_requests()
        .into_iter()
        .map(|request| encode(&oracle.respond(request)))
        .collect();
    let expect = OracleExpect {
        snapshot: oracle.snapshot(),
        battery,
        replayed,
    };
    cache.lock().unwrap().insert(prefix_len, expect.clone());
    expect
}

/// Asserts that recovering the journal at `path` lands on exactly the
/// durable record prefix (already verified to be `prefix_len` records
/// long) and serves the oracle's bytes.
fn assert_exact_prefix_recovery(path: &Path, prefix_len: usize) -> Result<(), TestCaseError> {
    let expect = oracle_expect(prefix_len);
    let recovered = recover(path, None, FsyncPolicy::Never)
        .map_err(|e| TestCaseError::fail(format!("prefix of {prefix_len} records: {e}")))?;
    prop_assert_eq!(
        recovered.info,
        RecoveryInfo {
            snapshot_loaded: false,
            replayed: expect.replayed
        }
    );
    let mut state = recovered.state;
    prop_assert_eq!(
        &state.snapshot(),
        &expect.snapshot,
        "recovered state diverged from the oracle at prefix {}",
        prefix_len
    );
    let options = ServerOptions::default();
    for (request, expected) in battery_requests().into_iter().zip(&expect.battery) {
        let (live, _) = respond(&mut state, &options, request.clone());
        prop_assert_eq!(
            &encode(&live),
            expected,
            "query {:?} diverged at prefix {}",
            request,
            prefix_len
        );
    }
    Ok(())
}

/// Frame end offsets of a journal image: magic end, then one per frame.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![8usize];
    let mut offset = 8usize;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if offset + 8 + len > bytes.len() {
            break;
        }
        offset += 8 + len;
        boundaries.push(offset);
    }
    boundaries
}

/// Truncation or corruption must yield a prefix (checked against the
/// pristine records) or a typed error; returns the prefix length when
/// the file still scans.
fn scanned_prefix_len(path: &Path) -> Result<Option<usize>, TestCaseError> {
    let fx = fixture();
    match scan(path) {
        Ok(scanned) => {
            prop_assert!(
                scanned.records.len() <= fx.records.len(),
                "scan invented records"
            );
            prop_assert_eq!(
                scanned.records.as_slice(),
                &fx.records[..scanned.records.len()],
                "scan produced a non-prefix of the pristine history"
            );
            Ok(Some(scanned.records.len()))
        }
        Err(JournalError::Corrupt { .. }) => Ok(None),
        Err(e) => Err(TestCaseError::fail(format!("unexpected scan error: {e}"))),
    }
}

#[test]
fn full_journal_recovery_matches_the_live_state() {
    let fx = fixture();
    let (_dir, path) = scratch_journal("full");
    std::fs::write(&path, &fx.pristine).unwrap();
    let recovered = recover(&path, None, FsyncPolicy::Never).unwrap();
    assert_eq!(recovered.state.snapshot(), fx.live);
    assert_eq!(recovered.truncated_bytes, 0);
    assert_eq!(
        recovered.info,
        RecoveryInfo {
            snapshot_loaded: false,
            replayed: FIXTURE_EVENTS as u64 + 2
        }
    );
}

/// The headline sweep: cut the journal at > 100 offsets — every record
/// boundary, its neighbourhood, and seeded random interior points — and
/// demand exact-prefix recovery (or a typed error for cuts that destroy
/// the header/base).
#[test]
fn truncation_sweep_recovers_the_exact_durable_prefix() {
    let fx = fixture();
    let total = fx.pristine.len();
    let mut offsets: Vec<usize> = vec![0, 1, 3, 7];
    for &boundary in &frame_boundaries(&fx.pristine) {
        for candidate in [
            boundary.saturating_sub(1),
            boundary,
            boundary + 1,
            boundary + 4,
        ] {
            offsets.push(candidate.min(total));
        }
    }
    let mut rng = ChaCha12Rng::seed_from_u64(CHAOS_SEED);
    for _ in 0..24 {
        offsets.push(rng.gen_range(0..total));
    }
    offsets.sort_unstable();
    offsets.dedup();
    assert!(
        offsets.len() > 100,
        "sweep must cover > 100 offsets, got {}",
        offsets.len()
    );

    let (_dir, path) = scratch_journal("truncate");
    let mut recoveries = 0usize;
    let mut typed_errors = 0usize;
    for &cut in &offsets {
        std::fs::write(&path, &fx.pristine[..cut]).unwrap();
        match scanned_prefix_len(&path).unwrap() {
            Some(prefix_len) if prefix_len > 0 => {
                assert_exact_prefix_recovery(&path, prefix_len).unwrap();
                recoveries += 1;
            }
            // Too short for the magic (scan error) or for the base
            // record (scan finds nothing): recovery must refuse, typed.
            _ => match recover(&path, None, FsyncPolicy::Never) {
                Err(JournalError::Corrupt { .. }) => typed_errors += 1,
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            },
        }
    }
    assert!(recoveries > 80, "sweep exercised {recoveries} recoveries");
    assert!(typed_errors > 5, "sweep exercised {typed_errors} refusals");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit flips anywhere in the file: recovery lands on the record
    /// prefix before the damage (CRC32 catches every 1-bit error) or
    /// refuses with a typed error (magic/base damage). Never panics,
    /// never serves a diverged state.
    #[test]
    fn bit_flips_recover_a_prefix_or_fail_typed(pos in any::<u32>(), bit in 0..8u32) {
        let fx = fixture();
        let mut bytes = fx.pristine.clone();
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        let (_dir, path) = scratch_journal("bitflip");
        std::fs::write(&path, &bytes).unwrap();
        match scanned_prefix_len(&path)? {
            Some(prefix_len) if prefix_len > 0 => {
                assert_exact_prefix_recovery(&path, prefix_len)?;
            }
            _ => {
                let refused = recover(&path, None, FsyncPolicy::Never);
                prop_assert!(
                    matches!(refused, Err(JournalError::Corrupt { .. })),
                    "expected a typed refusal, got {:?}",
                    refused
                );
            }
        }
    }

    /// Appending past a recovered prefix continues the history exactly:
    /// recover at a random boundary, drive fresh mutations through the
    /// resumed journal, recover *again* — the double-recovered daemon
    /// matches a continuation oracle byte for byte.
    #[test]
    fn resumed_journals_keep_accepting_and_recovering(boundary_index in any::<u16>()) {
        let fx = fixture();
        let boundaries = frame_boundaries(&fx.pristine);
        // Land on a boundary with at least the base record intact.
        let cut = boundaries[1 + boundary_index as usize % (boundaries.len() - 1)];
        let (_dir, path) = scratch_journal("resume");
        std::fs::write(&path, &fx.pristine[..cut]).unwrap();

        let recovered = recover(&path, None, FsyncPolicy::Never)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut state = recovered.state;
        let mut journal = Some(recovered.journal);
        let options = ServerOptions::default();
        let classes = state.class_names();
        for event in loadgen::generate_events(CHAOS_SEED ^ 1, 4, &classes) {
            let (response, _) =
                respond_journaled(&mut state, &options, &mut journal, Request::Churn(event));
            prop_assert!(matches!(response, Response::Churned { .. }));
        }
        journal.as_mut().unwrap().sync().map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(journal);

        let again = recover(&path, None, FsyncPolicy::Never)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(again.state.snapshot(), state.snapshot());
    }
}

// ---------------------------------------------------------------------
// Protocol decode fuzz: hostile lines never panic, never mutate.
// ---------------------------------------------------------------------

/// Shared daemon state for the fuzz battery (building one per case
/// would dominate the runtime); every case asserts it left the
/// mutation counters untouched.
fn fuzz_state() -> &'static Mutex<ServeState> {
    static STATE: OnceLock<Mutex<ServeState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.1);
        Mutex::new(ServeState::new(spec, &EfLora::default()).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup through the exact server line path: always an
    /// in-band error (or a non-mutating success for the astronomically
    /// unlikely valid request), counters untouched.
    #[test]
    fn random_bytes_get_in_band_errors_and_mutate_nothing(
        bytes in collection::vec(any::<u8>(), 0..200)
    ) {
        let line = String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ");
        let mut state = fuzz_state().lock().unwrap();
        let before = (state.events_applied(), state.windows_observed());
        let options = ServerOptions::default();
        let (response, shutdown) = handle_line(&mut state, &options, &mut None, &line);
        let after = (state.events_applied(), state.windows_observed());
        prop_assert_eq!(before, after, "hostile line mutated the state: {}", line);
        prop_assert!(!shutdown, "hostile line requested shutdown: {}", line);
        if !line.trim().is_empty() {
            prop_assert!(
                matches!(
                    response,
                    Response::Error { .. }
                        | Response::Pong
                        | Response::Info { .. }
                        | Response::Metrics { .. }
                        | Response::Status { .. }
                        | Response::Device { .. }
                ),
                "unexpected response to junk: {:?}",
                response
            );
        }
    }

    /// Truncating a valid request at any byte boundary decodes to a
    /// clean error (or the full request at full length) — no panic on
    /// half a JSON document.
    #[test]
    fn truncated_requests_decode_to_errors(cut in any::<u16>()) {
        let full = encode(&Request::Churn(lora_scenario::spec::ChurnEvent {
            epoch: 3,
            event: lora_scenario::spec::ChurnKind::Migrate {
                from: "bursty".to_string(),
                to: "steady".to_string(),
                count: 2,
            },
        }));
        let cut = cut as usize % full.len();
        let decoded = decode::<Request>(&full[..cut]);
        if cut == 0 {
            prop_assert!(decoded.is_err());
        } else {
            // Any strict prefix of this request is invalid JSON or an
            // incomplete schema.
            prop_assert!(decoded.is_err(), "prefix of {} bytes decoded", cut);
        }
    }
}

#[test]
fn deeply_nested_junk_is_rejected_without_overflowing_the_stack() {
    // 100k unclosed arrays: the recursive-descent parser must refuse at
    // its depth cap instead of exhausting the stack.
    let mut hostile = String::from("{\"Churn\":");
    hostile.push_str(&"[".repeat(100_000));
    assert!(decode::<Request>(&hostile).is_err());

    let mut closed = "[".repeat(5_000);
    closed.push_str(&"]".repeat(5_000));
    assert!(decode::<Request>(&closed).is_err());

    // The same lines through the server path: in-band error, counters
    // untouched.
    let mut state = fuzz_state().lock().unwrap();
    let before = (state.events_applied(), state.windows_observed());
    let options = ServerOptions::default();
    for line in [hostile, closed] {
        let (response, shutdown) = handle_line(&mut state, &options, &mut None, &line);
        assert!(
            matches!(response, Response::Error { .. }),
            "got {response:?}"
        );
        assert!(!shutdown);
    }
    assert_eq!(before, (state.events_applied(), state.windows_observed()));
}

#[test]
fn decode_fuzz_covers_the_documented_hostile_shapes() {
    // The satellite checklist's explicit shapes, deterministically.
    for line in [
        "",
        "   ",
        "null",
        "0",
        "\"\"",
        "{}",
        "[]",
        "{\"Churn\":}",
        "{\"Churn\":{\"epoch\":\"not a number\"}}",
        "{\"Device\":{\"index\":-1}}",
        "\u{1F980} not json at all",
        "{\"Churn\":{\"epoch\":1,\"event\":{\"Join\":{\"class\":4,\"count\":\"x\"}}}}",
    ] {
        assert!(
            decode::<Request>(line).is_err(),
            "hostile line decoded: {line:?}"
        );
    }
}
