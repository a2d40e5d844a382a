//! Gateway demodulator capacity.
//!
//! LoRa gateways are built around the Semtech SX1301 concentrator, which
//! despite listening on 8 channels × 6 SFs can *demodulate at most eight
//! packets concurrently* (paper Section III-B). The paper models this as
//! the constraint `Σ_i χ_{i,k}^t ≤ 8` (Eq. 6); the simulator enforces it
//! with this demodulator bank.

use serde::{Deserialize, Serialize};

use crate::GATEWAY_MAX_CONCURRENT;

/// A bank of demodulator paths with first-come-first-served locking.
///
/// Each accepted reception occupies one path from its start until its end
/// time; a packet arriving while all paths are busy is dropped even if it
/// would otherwise decode (this is the paper's capacity limitation).
///
/// ```
/// use lora_mac::DemodulatorBank;
/// let mut bank = DemodulatorBank::sx1301();
/// for i in 0..8 {
///     assert!(bank.try_acquire(0.0, 1.0), "path {i} should be free");
/// }
/// // The ninth concurrent packet is dropped…
/// assert!(!bank.try_acquire(0.5, 1.5));
/// // …but once the first eight finish, paths free up again.
/// assert!(bank.try_acquire(1.0, 2.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemodulatorBank {
    capacity: usize,
    /// End times of receptions holding a path, and of expired ones not
    /// yet released; never more entries than paths.
    busy_until: Vec<f64>,
    /// Total number of acquisitions granted.
    granted: u64,
    /// Total number of acquisitions refused for lack of a free path.
    refused: u64,
}

impl DemodulatorBank {
    /// Creates a bank with the SX1301's eight paths.
    pub fn sx1301() -> Self {
        DemodulatorBank::with_capacity(GATEWAY_MAX_CONCURRENT)
    }

    /// Creates a bank with a custom number of paths.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a gateway needs at least one demodulator");
        DemodulatorBank {
            capacity,
            busy_until: Vec::with_capacity(capacity),
            granted: 0,
            refused: 0,
        }
    }

    /// The number of demodulator paths.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of paths busy at time `now_s`.
    pub fn busy_at(&self, now_s: f64) -> usize {
        self.busy_until.iter().filter(|&&end| end > now_s).count()
    }

    /// Attempts to lock a path for a reception spanning `[start_s, end_s]`.
    ///
    /// Returns `true` and occupies a path on success; returns `false` if all
    /// paths are busy at `start_s` (the packet is lost to the capacity
    /// limit). Calls must be made in non-decreasing `start_s` order, which
    /// is what a discrete-event simulator naturally does.
    pub fn try_acquire(&mut self, start_s: f64, end_s: f64) -> bool {
        debug_assert!(end_s >= start_s);
        // Release expired paths only when every path looks taken: with
        // fewer entries than paths one is free whatever has expired, so
        // the verdict is that of pruning on every call.
        if self.busy_until.len() >= self.capacity {
            self.busy_until.retain(|&end| end > start_s);
        }
        if self.busy_until.len() < self.capacity {
            self.busy_until.push(end_s);
            self.granted += 1;
            true
        } else {
            self.refused += 1;
            false
        }
    }

    /// Total receptions granted a path so far.
    #[inline]
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Total receptions refused for lack of a free path so far.
    #[inline]
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Clears all state, keeping the capacity.
    pub fn reset(&mut self) {
        self.busy_until.clear();
        self.granted = 0;
        self.refused = 0;
    }
}

impl Default for DemodulatorBank {
    fn default() -> Self {
        DemodulatorBank::sx1301()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninth_concurrent_packet_is_refused() {
        let mut bank = DemodulatorBank::sx1301();
        for _ in 0..8 {
            assert!(bank.try_acquire(10.0, 12.0));
        }
        assert!(!bank.try_acquire(11.0, 13.0));
        assert_eq!(bank.granted(), 8);
        assert_eq!(bank.refused(), 1);
    }

    #[test]
    fn paths_free_after_end_time() {
        let mut bank = DemodulatorBank::with_capacity(1);
        assert!(bank.try_acquire(0.0, 1.0));
        assert!(!bank.try_acquire(0.5, 1.5));
        // start == previous end: the path is free again (open interval).
        assert!(bank.try_acquire(1.0, 2.0));
    }

    #[test]
    fn busy_at_counts_active_paths() {
        let mut bank = DemodulatorBank::sx1301();
        bank.try_acquire(0.0, 2.0);
        bank.try_acquire(0.0, 5.0);
        assert_eq!(bank.busy_at(1.0), 2);
        assert_eq!(bank.busy_at(3.0), 1);
        assert_eq!(bank.busy_at(6.0), 0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut bank = DemodulatorBank::with_capacity(2);
        bank.try_acquire(0.0, 1.0);
        bank.try_acquire(0.0, 1.0);
        bank.try_acquire(0.0, 1.0);
        bank.reset();
        assert_eq!(bank.granted(), 0);
        assert_eq!(bank.refused(), 0);
        assert_eq!(bank.busy_at(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = DemodulatorBank::with_capacity(0);
    }
}
