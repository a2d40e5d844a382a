//! Deterministic scoped-thread fan-out for the EF-LoRa workspace.
//!
//! Every parallel site in this repository — replication fan-out in the
//! bench harness, the sharded planner's cell solves, attenuation-matrix
//! construction — goes through [`par_map_indexed`], which has one
//! defining property: **the result is a pure function of the input,
//! independent of the worker count and of the schedule**. Index `i` of
//! the output always holds `f(i)`. Workers claim indices from a shared
//! atomic counter (single indices, or small contiguous blocks on long
//! inputs), so a worker that drew cheap items claims more of them
//! instead of idling while another finishes a fixed share; each claimed
//! block comes back tagged with its first index and the blocks are
//! reassembled in index order. `threads = 1` and `threads = 64` therefore
//! produce byte-identical vectors. Determinism reduces to `f` itself
//! being a pure function of its index — which the call sites guarantee by
//! deriving any randomness from per-index seeds computed up front.
//!
//! Built on `std::thread::scope` and one `AtomicUsize` only: no
//! per-worker queues, no external dependency, no `unsafe`.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable controlling workspace-wide parallelism.
pub const THREADS_ENV: &str = "EF_LORA_THREADS";

/// The host's available parallelism, with a floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses an `EF_LORA_THREADS`-style value: `0` means "use the host's
/// available parallelism"; malformed input is rejected.
///
/// # Errors
///
/// Returns a human-readable message when `raw` is not a non-negative
/// integer.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Ok(available_threads()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV}={raw:?} is not a non-negative integer"
        )),
    }
}

/// Reads [`THREADS_ENV`], defaulting to the host's available parallelism
/// when unset and warning loudly (then falling back to the default) when
/// the value is malformed.
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads(&raw).unwrap_or_else(|msg| {
            let fallback = available_threads();
            eprintln!("warning: {msg}; using {fallback} thread(s)");
            fallback
        }),
        Err(_) => available_threads(),
    }
}

/// Claims per worker a long input is cut into: blocks of
/// `len / (CLAIMS_PER_WORKER · workers)` indices (at least one) keep the
/// counter cold on long inputs, while an input shorter than
/// `CLAIMS_PER_WORKER · workers` is claimed one index at a time.
const CLAIMS_PER_WORKER: usize = 64;

/// Maps `f` over `0..len` using up to `threads` scoped workers, returning
/// `vec![f(0), f(1), …, f(len-1)]` — in index order, regardless of the
/// worker count or scheduling. Workers claim the next unclaimed block of
/// indices until none is left, so uneven per-index costs even out across
/// workers. With `threads <= 1` (or `len <= 1`) the map runs inline on
/// the caller's thread with zero spawn overhead.
///
/// # Panics
///
/// Propagates a panic from `f` (workers are joined; a worker panic
/// re-panics on the caller).
pub fn par_map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, len.max(1));
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let block = (len / (CLAIMS_PER_WORKER * workers)).max(1);
    // The first index of the next unclaimed block. `Relaxed` suffices:
    // the counter publishes no data (results come back through `join`),
    // and `fetch_add` hands each block to exactly one worker at any
    // ordering.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut claimed = Vec::new();
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= len {
                return claimed;
            }
            let end = (start + block).min(len);
            claimed.push((start, (start..end).map(&f).collect::<Vec<T>>()));
        }
    };
    let mut blocks: Vec<(usize, Vec<T>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => blocks.extend(claimed),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, values) in blocks {
        out.extend(values);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn every_index_runs_exactly_once_under_skewed_costs() {
        // Every 97th index sleeps, so workers finish their claims at very
        // different times and keep claiming past each other.
        for len in [1usize, 2, 5, 47, 300, 10_000] {
            for threads in 1..=8 {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = par_map_indexed(len, threads, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if i % 97 == 0 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    i * 3
                });
                assert_eq!(out, (0..len).map(|i| i * 3).collect::<Vec<_>>());
                for (i, runs) in runs.iter().enumerate() {
                    assert_eq!(
                        runs.load(Ordering::Relaxed),
                        1,
                        "len={len} threads={threads} index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn output_is_identical_for_one_to_eight_workers() {
        let f = |i: usize| format!("{i}:{}", (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Lengths below, at and above the worker counts, and on both
        // sides of the single-index claiming threshold.
        for len in [0usize, 1, 3, 7, 64, 129, 1_000, 5_000] {
            let serial: Vec<String> = (0..len).map(f).collect();
            for threads in (1..=8).chain([16]) {
                assert_eq!(
                    par_map_indexed(len, threads, f),
                    serial,
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn a_slow_index_does_not_hold_back_the_rest() {
        // Index 0 returns only after every other index has run. With one
        // fixed contiguous chunk per worker, index 0's worker would also
        // own index 1 and wait until the timeout; claiming lets the other
        // worker take every remaining index.
        let len = 4;
        let done = Mutex::new(0usize);
        let all_done = Condvar::new();
        let out = par_map_indexed(len, 2, |i| {
            let mut count = done.lock().unwrap();
            if i == 0 {
                let (count, wait) = all_done
                    .wait_timeout_while(count, Duration::from_secs(10), |c| *c < len - 1)
                    .unwrap();
                assert!(!wait.timed_out(), "the other indices never ran");
                *count
            } else {
                *count += 1;
                all_done.notify_all();
                i
            }
        });
        assert_eq!(out, vec![3, 1, 2, 3]);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        assert_eq!(par_map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 8, |i| i * 2), vec![0]);
    }

    #[test]
    fn parse_threads_accepts_and_rejects() {
        assert_eq!(parse_threads("3"), Ok(3));
        assert_eq!(parse_threads(" 5 "), Ok(5));
        assert_eq!(parse_threads("0"), Ok(available_threads()));
        assert!(parse_threads("four").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("").is_err());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        par_map_indexed(8, 4, |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }
}
