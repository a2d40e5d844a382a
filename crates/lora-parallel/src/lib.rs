//! Deterministic scoped-thread fan-out for the EF-LoRa workspace.
//!
//! Every parallel site in this repository — replication fan-out in the
//! bench harness, the EF-LoRa candidate scan, attenuation-matrix
//! construction — goes through [`par_map_indexed`], which has one
//! defining property: **the result is a pure function of the input,
//! independent of the worker count**. Index `i` of the output always
//! holds `f(i)`, workers own contiguous index chunks, and chunk results
//! are concatenated in chunk order, so `threads = 1` and `threads = 64`
//! produce byte-identical vectors. Determinism therefore reduces to `f`
//! itself being a pure function of its index — which the call sites
//! guarantee by deriving any randomness from per-index seeds computed up
//! front.
//!
//! Built on `std::thread::scope` only: no work stealing, no shared
//! queues, no external dependency. That trades peak load-balancing for
//! provable reproducibility, which is the right trade for a paper
//! reproduction whose headline claim is seed-stable results.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

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

/// Splits `len` items into at most `chunks` contiguous ranges of
/// near-equal size (the first `len % chunks` ranges get one extra item).
/// Empty ranges are never produced; fewer than `chunks` ranges come back
/// when `len < chunks`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f` over `0..len` using up to `threads` scoped workers, returning
/// `vec![f(0), f(1), …, f(len-1)]` — in index order, regardless of the
/// worker count or scheduling. With `threads <= 1` (or a single chunk)
/// the map runs inline on the caller's thread with zero spawn overhead.
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
    let ranges = chunk_ranges(len, threads.max(1));
    if ranges.len() <= 1 {
        return (0..len).map(f).collect();
    }
    let mut chunk_results: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| range.map(&f).collect::<Vec<T>>()))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(chunk) => chunk_results.push(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out = Vec::with_capacity(len);
    for chunk in chunk_results {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_all_indices_without_overlap() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, chunks);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "len={len} chunks={chunks}"
                );
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.len() <= chunks.max(1));
            }
        }
    }

    #[test]
    fn map_is_identical_across_thread_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd;
        let serial = par_map_indexed(1000, 1, f);
        for threads in [2, 3, 4, 7, 16, 1000] {
            assert_eq!(
                par_map_indexed(1000, threads, f),
                serial,
                "threads={threads}"
            );
        }
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
