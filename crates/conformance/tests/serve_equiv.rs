//! Differential equivalence battery for the incremental serve path.
//!
//! Every test replays request interleavings through two daemons at once:
//! the live [`ef_lora_serve::ServeState`] (persistent, incrementally
//! maintained model state) and the frozen
//! [`ef_lora_serve::reference::ReferenceState`] oracle (the
//! pre-incremental daemon that rebuilds every model artefact from
//! scratch at the point of use). The wire encodings must match **byte
//! for byte**, and after every event the daemon's cached model must be
//! bitwise equal to a from-scratch `NetworkModel::new` over the live
//! population. One case moves devices through a masked reallocation,
//! which the daemon's live model state must follow.

use conformance::serve_equiv::{transcript_schedule, TRANSCRIPT_SEED};
use ef_lora::resilience::Decision;
use ef_lora::{fairness, EfLora};
use ef_lora_serve::protocol::{encode, Request};
use ef_lora_serve::reference::ReferenceState;
use ef_lora_serve::{respond, ServeState, ServerOptions};
use lora_scenario::catalog;
use lora_scenario::spec::{ChurnEvent, ChurnKind};
use lora_sim::report::{DeviceStats, GatewayStats};
use lora_sim::{SimReport, Topology};
use proptest::prelude::*;

#[path = "../../serve/tests/support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

/// One step of a differential interleaving. Raw selectors (`class`,
/// `index`) are reduced modulo the live class list / population at
/// replay time, so every generated sequence is valid by construction
/// and still shrinks cleanly.
#[derive(Debug, Clone)]
enum Op {
    Join {
        class: u8,
        count: usize,
    },
    Leave {
        count: usize,
    },
    Migrate {
        from: u8,
        to: u8,
        count: usize,
    },
    Measure,
    Metrics,
    Device {
        index: u16,
    },
    Status,
    Info,
    /// Crash-and-recover: snapshot the incremental daemon, throw the
    /// live state away, restore from the image, and keep going. The
    /// reference is *not* restarted — the restored daemon must continue
    /// exactly like a daemon that never crashed.
    SnapshotRestore,
}

/// Raw generated form of an [`Op`]: a selector byte, two operand bytes
/// and a count. Decoded by [`decode`]; weights live in the selector
/// ranges (churn-heavy, with sparse measure/restore events).
type RawOp = (u8, u8, u8, usize);

/// Strategy yielding one [`RawOp`].
type RawOpStrategy = (Any<u8>, Any<u8>, Any<u8>, std::ops::Range<usize>);

fn raw_ops(len: std::ops::Range<usize>) -> collection::VecStrategy<RawOpStrategy> {
    collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 1..6usize), len)
}

fn decode(raw: RawOp) -> Op {
    let (sel, a, b, count) = raw;
    match sel % 16 {
        0..=2 => Op::Join { class: a, count },
        3..=5 => Op::Leave {
            count: count.min(4),
        },
        6..=7 => Op::Migrate {
            from: a,
            to: b,
            count,
        },
        8 => Op::Measure,
        9..=10 => Op::Metrics,
        11..=12 => Op::Device {
            index: u16::from_le_bytes([a, b]),
        },
        13 => Op::Status,
        14 => Op::Info,
        _ => Op::SnapshotRestore,
    }
}

/// Builds the two daemons over the same smoke-scale churn-heavy
/// scenario (~30 devices, 2 gateways).
fn smoke_pair() -> (ServeState, ReferenceState) {
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.15);
    let state = ServeState::new(spec.clone(), &EfLora::default()).expect("scenario allocates");
    let reference = ReferenceState::new(spec, &EfLora::default()).expect("scenario allocates");
    (state, reference)
}

/// Renders `op` into the concrete wire request for the live population.
fn request_for(op: &Op, classes: &[String], devices: usize, epoch: u32) -> Option<Request> {
    let class_of = |raw: u8| classes[raw as usize % classes.len()].clone();
    let event = |kind: ChurnKind| Request::Churn(ChurnEvent { epoch, event: kind });
    Some(match op {
        Op::Join { class, count } => event(ChurnKind::Join {
            class: class_of(*class),
            count: *count,
        }),
        Op::Leave { count } => event(ChurnKind::Leave { count: *count }),
        Op::Migrate { from, to, count } => event(ChurnKind::Migrate {
            from: class_of(*from),
            to: class_of(*to),
            count: *count,
        }),
        Op::Measure => Request::Measure,
        Op::Metrics => Request::Metrics,
        Op::Device { index } => Request::Device {
            index: *index as usize % devices.max(1),
        },
        Op::Status => Request::Status,
        Op::Info => Request::Info,
        Op::SnapshotRestore => return None,
    })
}

/// Replays `ops` through both daemons, comparing wire bytes after every
/// exchange and the cached model against a from-scratch rebuild.
fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let options = ServerOptions::default();
    let (mut state, mut reference) = smoke_pair();
    let classes = state.class_names();
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, Op::SnapshotRestore) {
            let image = state.snapshot();
            prop_assert_eq!(
                &image,
                &reference.snapshot(),
                "snapshot images diverged before restore at step {}",
                i
            );
            drop(state);
            state = ServeState::restore(image).map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                state.cached_model(),
                &reference.fresh_model(),
                "restored cached model diverged at step {}",
                i
            );
            continue;
        }
        let request = request_for(op, &classes, reference.device_count(), i as u32 + 1)
            .expect("non-restore ops map to requests");
        let (live, _) = respond(&mut state, &options, request.clone());
        let oracle = reference.respond(request);
        prop_assert_eq!(
            encode(&live),
            encode(&oracle),
            "wire responses diverged at step {} ({:?})",
            i,
            op
        );
        prop_assert_eq!(
            state.cached_model(),
            &reference.fresh_model(),
            "cached model diverged from from-scratch rebuild at step {} ({:?})",
            i,
            op
        );
    }
    prop_assert_eq!(
        state.snapshot(),
        reference.snapshot(),
        "final snapshots diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline differential property: random interleavings of
    /// Join/Leave/Migrate/Measure, queries and crash-restore produce
    /// byte-identical wire behaviour on the incremental and the
    /// from-scratch daemons, and the cached model never drifts from a
    /// fresh rebuild.
    #[test]
    fn incremental_daemon_is_byte_equivalent_to_from_scratch(
        raw in raw_ops(1..14)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        run_differential(&ops)?;
    }

    /// Satellite identity: after any churn prefix, the attenuation
    /// rows, per-device intervals and the candidate grid the allocator
    /// scans are identical between the incremental model state and a
    /// from-scratch build.
    #[test]
    fn model_artefacts_match_from_scratch(
        raw in raw_ops(1..10)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        let options = ServerOptions::default();
        let (mut state, mut reference) = smoke_pair();
        let classes = state.class_names();
        for (i, op) in ops.iter().enumerate() {
            let Some(request) = request_for(op, &classes, reference.device_count(), i as u32 + 1)
            else {
                continue;
            };
            let _ = respond(&mut state, &options, request.clone());
            let _ = reference.respond(request);
        }
        let fresh = reference.fresh_model();
        prop_assert_eq!(state.cached_model().device_count(), fresh.device_count());
        for d in 0..fresh.device_count() {
            for g in 0..fresh.gateway_count() {
                prop_assert_eq!(
                    state.cached_model().attenuation(d, g).to_bits(),
                    fresh.attenuation(d, g).to_bits(),
                    "attenuation row {} gateway {} diverged",
                    d,
                    g
                );
            }
        }
        prop_assert_eq!(state.cached_model(), &fresh);
        prop_assert_eq!(state.alloc(), reference.alloc());
    }
}

/// Deterministic paper-scale differential: the full pinned transcript
/// schedule (200 devices, 48 churn events, two measurement windows)
/// replayed on both daemons, line by line.
#[test]
fn transcript_schedule_is_byte_equivalent_at_paper_scale() {
    let options = ServerOptions::default();
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 1.0);
    let mut state = ServeState::new(spec.clone(), &EfLora::default()).unwrap();
    let mut reference = ReferenceState::new(spec, &EfLora::default()).unwrap();
    let classes = state.class_names();
    let events = transcript_schedule(&classes);
    let mut exchanges = 0usize;
    let compare = |state: &mut ServeState, reference: &mut ReferenceState, req: Request| {
        let (live, _) = respond(state, &options, req.clone());
        let oracle = reference.respond(req.clone());
        assert_eq!(
            encode(&live),
            encode(&oracle),
            "daemons diverged on {:?}",
            req
        );
    };
    for (i, event) in events.iter().enumerate() {
        compare(&mut state, &mut reference, Request::Churn(event.clone()));
        exchanges += 1;
        if i % 6 == 2 {
            compare(&mut state, &mut reference, Request::Metrics);
            let index = (i * 17) % reference.device_count();
            compare(&mut state, &mut reference, Request::Device { index });
            exchanges += 2;
        }
        if i == 15 || i == 37 {
            compare(&mut state, &mut reference, Request::Measure);
            exchanges += 1;
        }
    }
    assert!(exchanges > 50, "schedule exercised {exchanges} exchanges");
    assert_eq!(*state.cached_model(), reference.fresh_model());
    assert_eq!(TRANSCRIPT_SEED, 7, "schedule seed is pinned");
}

/// Crash-recovery continuation: half the transcript, a snapshot to
/// disk, a hard drop of the live state (the in-process analogue of
/// `kill -9`), a restore from the file, then the second half — every
/// post-restore response byte-identical to the never-crashed oracle,
/// and no stale retired rows resurrected in the cached model.
#[test]
fn restore_after_hard_kill_continues_byte_identically() {
    let options = ServerOptions::default();
    let (mut state, mut reference) = smoke_pair();
    let classes = state.class_names();
    let events = transcript_schedule(&classes);
    let (first, second) = events.split_at(events.len() / 2);
    for event in first {
        let (_, _) = respond(&mut state, &options, Request::Churn(event.clone()));
        reference.respond(Request::Churn(event.clone()));
    }
    let dir = TempDir::new("serve-equiv");
    let path = dir.path().join("mid-kill.snapshot.json");
    state.snapshot_to_file(&path).unwrap();
    drop(state);
    let mut restored = ServeState::restore_from_file(&path).unwrap();
    drop(dir);
    assert_eq!(
        *restored.cached_model(),
        reference.fresh_model(),
        "restore resurrected stale model rows"
    );
    for event in second {
        let (live, _) = respond(&mut restored, &options, Request::Churn(event.clone()));
        let oracle = reference.respond(Request::Churn(event.clone()));
        assert_eq!(encode(&live), encode(&oracle));
    }
    let (live, _) = respond(&mut restored, &options, Request::Metrics);
    assert_eq!(encode(&live), encode(&reference.respond(Request::Metrics)));
    let (live, _) = respond(&mut restored, &options, Request::Measure);
    assert_eq!(encode(&live), encode(&reference.respond(Request::Measure)));
    assert_eq!(restored.snapshot(), reference.snapshot());
}

/// A degraded window: every device limps at a tenth of the healthy
/// baseline EE, and gateway 0's outage counter absorbs every attempt, so
/// the controller decides `Reallocate` with gateway 0 suspect.
fn degraded_window(state: &ServeState) -> SimReport {
    let baseline = state
        .controller()
        .baseline_min_ee()
        .expect("the baseline is injected at load");
    let n = state.device_count();
    let devices = (0..n)
        .map(|_| DeviceStats {
            attempts: 10,
            delivered: 2,
            energy_j: 1.0,
            ee_bits_per_mj: 0.1 * baseline,
            lifetime_s: None,
        })
        .collect();
    let mut gateways = vec![GatewayStats::default(); state.gateway_count()];
    gateways[0].outage_drops = 10 * n as u64;
    SimReport {
        devices,
        gateways,
        frames_delivered: 2 * n as u64,
        duplicate_copies: 0,
        duration_s: 600.0,
    }
}

/// A reallocation that moves devices. Every `Measure`-driven
/// `Reallocate` of the battery above has no suspect gateway and moves
/// nothing, so this case injects a degraded window through
/// `ingest_window` instead. The live model state must follow the moved
/// devices: `Metrics` is bit-equal to a fresh evaluation, and everything
/// after the window byte-equal to a from-scratch daemon restored from
/// the same point.
#[test]
fn reallocation_that_moves_devices_keeps_the_live_state() {
    let options = ServerOptions::default();
    let (mut state, _) = smoke_pair();
    let image = state.snapshot();
    let topology = Topology::from_sites(image.sites, image.gateways, image.radius_m);
    let window = state.ingest_window(&degraded_window(&state), &topology);
    assert!(
        matches!(&window.decision, Decision::Reallocate { suspects } if suspects == &[0]),
        "the window must ask for a masked reallocation, got {:?}",
        window.decision
    );
    assert!(
        window.reconfigured > 0,
        "the reallocation must move devices"
    );

    let ee = state.cached_model().evaluate(state.alloc());
    let want = [
        fairness::min_ee(&ee),
        fairness::mean(&ee),
        fairness::jain_index(&ee),
    ];
    let bits = |v: [f64; 3]| v.map(f64::to_bits);
    assert_eq!(bits(state.model_metrics()), bits(want));

    let mut reference = ReferenceState::restore(state.snapshot()).unwrap();
    let classes = state.class_names();
    let mut compare = |state: &mut ServeState, request: Request| {
        let (live, _) = respond(state, &options, request.clone());
        let oracle = reference.respond(request.clone());
        assert_eq!(encode(&live), encode(&oracle), "diverged on {request:?}");
    };
    compare(&mut state, Request::Metrics);
    for index in [0, 7, 19] {
        compare(&mut state, Request::Device { index });
    }
    for (i, event) in transcript_schedule(&classes).into_iter().enumerate() {
        compare(&mut state, Request::Churn(event));
        if i % 4 == 1 {
            compare(&mut state, Request::Metrics);
            let index = (i * 13) % state.device_count();
            compare(&mut state, Request::Device { index });
        }
    }
    compare(&mut state, Request::Metrics);
    assert_eq!(state.snapshot(), reference.snapshot());
}
