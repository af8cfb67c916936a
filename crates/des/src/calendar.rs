//! The event calendar: a binary min-heap with a deterministic total order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The ordering key of one scheduled event.
///
/// Events dispatch in ascending `(time, flow, seq)` order. `flow` is the
/// **global** flow id (stable across shard layouts), so two flows whose
/// events collide on the clock always resolve the same way no matter how
/// the fleet is partitioned; `seq` orders a flow's simultaneous events
/// (e.g. a fragment train arriving in one burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Dispatch time on the simulation clock.
    pub time: SimTime,
    /// Global flow id (first tiebreak).
    pub flow: u64,
    /// Per-flow sequence number (second tiebreak).
    pub seq: u64,
}

/// One heap entry: the key, an insertion tick, and the payload.
struct Entry<E> {
    key: EventKey,
    /// Monotonic insertion counter: exact duplicates of a key dispatch in
    /// FIFO order instead of whatever the heap's sift happens to produce.
    tick: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.tick == other.tick
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.tick.cmp(&other.tick))
    }
}

/// A deterministic pending-event set with `O(log n)` schedule and pop.
///
/// [`pop`](Calendar::pop) always returns the minimum under the
/// `(time, flow, seq, insertion tick)` total order, so the dispatch
/// sequence is a pure function of what was scheduled — never of heap
/// layout. The calendar also counts scheduled and dispatched events; the
/// dispatch count is the denominator of the events/sec figures recorded
/// in `BENCH_fleet.json`.
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_tick: u64,
    scheduled: u64,
    dispatched: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_tick: 0,
            scheduled: 0,
            dispatched: 0,
        }
    }

    /// An empty calendar with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        Calendar {
            heap: BinaryHeap::with_capacity(capacity),
            next_tick: 0,
            scheduled: 0,
            dispatched: 0,
        }
    }

    /// Schedule `event` under `key`. `O(log n)`.
    pub fn schedule(&mut self, key: EventKey, event: E) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.scheduled += 1;
        self.heap.push(Reverse(Entry { key, tick, event }));
    }

    /// Remove and return the earliest event, or `None` when drained.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.dispatched += 1;
        Some((entry.key, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled over the calendar's lifetime.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events dispatched (popped) over the calendar's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: f64, flow: u64, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_s(t),
            flow,
            seq,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(key(3.0, 0, 0), "c");
        cal.schedule(key(1.0, 0, 1), "a");
        cal.schedule(key(2.0, 0, 2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(cal.scheduled(), 3);
        assert_eq!(cal.dispatched(), 3);
    }

    #[test]
    fn equal_times_break_in_flow_then_seq_order() {
        let mut cal = Calendar::new();
        cal.schedule(key(1.0, 2, 0), (2u64, 0u64));
        cal.schedule(key(1.0, 0, 1), (0, 1));
        cal.schedule(key(1.0, 0, 0), (0, 0));
        cal.schedule(key(1.0, 1, 7), (1, 7));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [(0, 0), (0, 1), (1, 7), (2, 0)]);
    }

    #[test]
    fn exact_duplicates_dispatch_fifo() {
        let mut cal = Calendar::new();
        for label in ["first", "second", "third"] {
            cal.schedule(key(5.0, 3, 9), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn pop_returns_the_earliest_key() {
        let mut cal = Calendar::new();
        cal.schedule(key(2.0, 1, 0), ());
        cal.schedule(key(1.0, 9, 4), ());
        let (k, ()) = cal.pop().unwrap();
        assert_eq!(k, key(1.0, 9, 4));
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Scheduling mid-drain (what handlers do) must preserve the order.
        let mut cal = Calendar::new();
        cal.schedule(key(1.0, 0, 0), 1u32);
        cal.schedule(key(4.0, 0, 3), 4);
        assert_eq!(cal.pop().unwrap().1, 1);
        cal.schedule(key(2.0, 0, 1), 2);
        cal.schedule(key(3.0, 0, 2), 3);
        let rest: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, [2, 3, 4]);
    }
}
