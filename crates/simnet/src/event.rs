//! Deterministic event queue.
//!
//! The kernel deliberately does not prescribe an actor framework: the
//! pipeline simulation in `actyp-pipeline` defines its own event enum and
//! drives the loop.  The queue guarantees that events are delivered in
//! non-decreasing time order and that events scheduled for the same instant
//! are delivered in the order they were scheduled (FIFO tie-break), which is
//! what makes simulation runs reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[cfg(test)]
use crate::time::SimDuration;
use crate::time::SimTime;

/// An event held by the queue, tagged with its delivery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub at: SimTime,
    /// Monotone sequence number used for FIFO tie-breaking.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Internal heap entry; ordered so that the `BinaryHeap` (a max-heap) pops the
/// earliest time / lowest sequence number first.
struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that earliest (time, seq) is the heap maximum.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event queue with a virtual clock.
///
/// The clock advances to the delivery time of each popped event; scheduling
/// an event in the past (which would break causality) is clamped to the
/// current clock value.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    now: SimTime,
    next_seq: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            delivered: 0,
        }
    }

    /// Current virtual time (the delivery time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute time.  Times earlier than the
    /// current clock are clamped to "now" to preserve causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
    }

    /// Schedules an event after a delay relative to the current clock.
    #[cfg(test)]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its delivery time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.delivered += 1;
        Some(ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            event: entry.event,
        })
    }

    /// Delivery time of the next pending event without popping it.
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        q.schedule_at(SimTime::from_nanos(200), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(100));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(200));
        assert!(q.pop().is_none());
        assert_eq!(q.delivered, 2);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), "first");
        q.pop();
        q.schedule_at(SimTime::from_nanos(10), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), ());
        q.pop();
        q.schedule_in(SimDuration::from_nanos(25), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(75)));
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimDuration::from_nanos(1), 1);
        q.schedule_in(SimDuration::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
