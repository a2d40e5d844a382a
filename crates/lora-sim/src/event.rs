//! The discrete-event queue.
//!
//! Pending events are held in two binary heaps by kind: every device's
//! next `TxStart` (about one per device) and the in-flight `TxEnd`s (a
//! handful, each due within one time-on-air). A `TxEnd` is nearly always
//! the next event, so keeping it out of the device-sized heap spares each
//! transmission two full-depth heap operations. One insertion counter
//! spans both heaps, and [`EventQueue::pop`] returns the earlier of the
//! two heads by `(time, insertion index)`: the pop order is exactly that
//! of a single queue ordered by `f64::total_cmp` on time, then by push
//! order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::TimeKey;

/// A simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Device `device` begins its `seq`-th transmission.
    TxStart {
        /// Device index.
        device: usize,
        /// 0-based transmission sequence number.
        seq: u32,
    },
    /// Device `device` finishes its `seq`-th transmission.
    TxEnd {
        /// Device index.
        device: usize,
        /// 0-based transmission sequence number.
        seq: u32,
    },
}

/// One pending event of a known kind (the heap it sits in names it).
#[derive(Debug, Clone, Copy)]
struct Queued {
    time: TimeKey,
    /// Monotone tie-breaker, shared by both heaps, so simultaneous events
    /// pop in insertion order, keeping runs deterministic.
    tie: u64,
    device: usize,
    seq: u32,
}

impl Queued {
    #[inline]
    fn key(&self) -> (TimeKey, u64) {
        (self.time, self.tie)
    }
}

impl Ord for Queued {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Queued {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

/// A deterministic earliest-first event queue.
///
/// ```
/// use lora_sim::event::{Event, EventQueue};
/// let mut q = EventQueue::new();
/// q.push(2.0, Event::TxEnd { device: 0, seq: 0 });
/// q.push(1.0, Event::TxStart { device: 0, seq: 0 });
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, 1.0);
/// assert_eq!(e, Event::TxStart { device: 0, seq: 0 });
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    starts: BinaryHeap<Queued>,
    ends: BinaryHeap<Queued>,
    next_tie: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at time `at_s`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at_s` is not finite.
    #[inline]
    pub fn push(&mut self, at_s: f64, event: Event) {
        let tie = self.next_tie;
        self.next_tie += 1;
        let time = TimeKey::new(at_s);
        match event {
            Event::TxStart { device, seq } => self.starts.push(Queued {
                time,
                tie,
                device,
                seq,
            }),
            Event::TxEnd { device, seq } => self.ends.push(Queued {
                time,
                tie,
                device,
                seq,
            }),
        }
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let end_first = match (self.starts.peek(), self.ends.peek()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(start), Some(end)) => end.key() < start.key(),
        };
        if end_first {
            let q = self.ends.pop()?;
            Some((
                q.time.seconds(),
                Event::TxEnd {
                    device: q.device,
                    seq: q.seq,
                },
            ))
        } else {
            let q = self.starts.pop()?;
            Some((
                q.time.seconds(),
                Event::TxStart {
                    device: q.device,
                    seq: q.seq,
                },
            ))
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.starts.len() + self.ends.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty() && self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            q.push(*t, Event::TxStart { device: i, seq: 0 });
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::TxStart { device: 0, seq: 0 });
        q.push(1.0, Event::TxStart { device: 1, seq: 0 });
        q.push(1.0, Event::TxStart { device: 2, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxStart { device: 0, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxStart { device: 1, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxStart { device: 2, seq: 0 });
    }

    #[test]
    fn simultaneous_events_of_both_kinds_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::TxEnd { device: 0, seq: 0 });
        q.push(1.0, Event::TxStart { device: 1, seq: 0 });
        q.push(1.0, Event::TxEnd { device: 2, seq: 0 });
        q.push(1.0, Event::TxStart { device: 3, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxEnd { device: 0, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxStart { device: 1, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxEnd { device: 2, seq: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxStart { device: 3, seq: 0 });
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Event::TxEnd { device: 0, seq: 3 });
        assert_eq!(q.len(), 1);
        q.push(0.5, Event::TxStart { device: 1, seq: 0 });
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// A small set of times, so equal times (and both zero signs) are
    /// common.
    const TIMES: [f64; 6] = [-0.0, 0.0, 0.25, 1.0, 1.0 + f64::EPSILON, 3.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue pops exactly what a reference pops that orders every
        /// pending event by `f64::total_cmp` on time, then by push index.
        #[test]
        fn pop_order_matches_sorted_reference(
            ops in collection::vec((0..2 * TIMES.len(), any::<bool>()), 0..200),
        ) {
            let mut q = EventQueue::new();
            // (time, push index, event) of every pending event.
            let mut reference: Vec<(f64, usize, Event)> = Vec::new();
            let mut pushed = 0usize;
            // An index into `TIMES` pushes an event of the drawn kind at
            // that time; any larger index pops. Trailing pops drain the
            // queue.
            let drain = std::iter::repeat_n((TIMES.len(), false), ops.len());
            for (op, end) in ops.iter().copied().chain(drain) {
                match TIMES.get(op) {
                    Some(&t) => {
                        let event = if end {
                            Event::TxEnd { device: pushed, seq: 1 }
                        } else {
                            Event::TxStart { device: pushed, seq: 0 }
                        };
                        q.push(t, event);
                        reference.push((t, pushed, event));
                        pushed += 1;
                    }
                    None => {
                        let earliest = (0..reference.len()).min_by(|&a, &b| {
                            let (a, b) = (&reference[a], &reference[b]);
                            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
                        });
                        let want = earliest.map(|i| {
                            let (t, _, e) = reference.swap_remove(i);
                            (t, e)
                        });
                        let got = q.pop();
                        prop_assert_eq!(
                            got.map(|(t, e)| (t.to_bits(), e)),
                            want.map(|(t, e)| (t.to_bits(), e))
                        );
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            prop_assert!(q.is_empty());
        }
    }
}
