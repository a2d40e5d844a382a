//! A drop-guarded scratch directory for tests that write files.
//!
//! The serve crate's unit and integration tests and the conformance
//! crate's daemon tests include this one file with `#[path]`, so it is
//! part of no library's API.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An empty directory under [`std::env::temp_dir`], removed with
/// everything in it when the guard drops, whether the test passed or
/// panicked.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `ef-lora-<tag>-<pid>-<n>`, where `n` counts the
    /// directories this process has made, so concurrent tests never share
    /// one.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ef-lora-{tag}-{}-{n}", std::process::id()));
        // A leftover of an earlier process that had the same id.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a test scratch directory");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: failing to clean up must not fail a test, nor
        // panic again while one unwinds.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
