//! The binary-heap event queue that drives the kernel.
//!
//! Events pop in a stable `(time, class, seq)` order — `f64::to_bits` is
//! monotone for the non-negative times in play, `class` is the
//! same-instant event ordering and `seq` is the push order — so ties
//! within one class pop first-in first-out and results never depend on
//! insertion patterns, hashing or thread count. The ordering oracles live
//! in test code: the property suite in `tests/queue_model.rs` drives the
//! queue against a naive sorted-`Vec` model of that key, and this
//! module's tests replay long interleavings against a reference queue.
//!
//! A plain [`BinaryHeap`] is enough: the kernel streams arrivals through
//! a fixed lookahead window ([`ARRIVAL_LOOKAHEAD`](crate::ARRIVAL_LOOKAHEAD)),
//! so the queue holds that window plus the in-flight completions and
//! periodic events — a few thousand entries, where a push or pop costs a
//! dozen comparisons.

use crate::engine::Event;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use tps_units::Seconds;

/// Depth and storage counters a queue accumulates over a run, surfaced
/// through [`KernelStats`](crate::KernelStats) so bench regressions are
/// diagnosable from CI logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Highest number of events pending at once.
    pub peak_depth: usize,
    /// Most entries the queue's storage ever held: the heap's peak
    /// length, so always equal to `peak_depth`.
    pub arena_high_water: usize,
}

/// One scheduled event, ordered by its key alone.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `(time_bits, class, seq)` — the queue's total pop order.
    key: (u64, u8, u64),
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A min-heap of events popping in exact `(time, class, seq)` order.
///
/// ```
/// use tps_cluster::{Event, EventQueue};
/// use tps_units::Seconds;
///
/// let mut q = EventQueue::new();
/// q.push(Seconds::new(5.0), Event::JobArrival(1));
/// q.push(Seconds::new(5.0), Event::JobCompletion { job: 0, server: 0 });
/// q.push(Seconds::new(1.0), Event::ControlTick);
/// // Earliest time first; at equal times completions precede arrivals.
/// assert_eq!(q.pop(), Some((Seconds::new(1.0), Event::ControlTick)));
/// assert!(matches!(q.pop(), Some((_, Event::JobCompletion { .. }))));
/// assert_eq!(q.pop(), Some((Seconds::new(5.0), Event::JobArrival(1))));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.stats().peak_depth, 3);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    peak_depth: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime depth/storage counters. Every push takes a fresh `seq`,
    /// so the push count is the sequence counter.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.seq,
            peak_depth: self.peak_depth,
            arena_high_water: self.peak_depth,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or not finite.
    pub fn push(&mut self, time: Seconds, event: Event) {
        assert!(
            time.value() >= 0.0 && time.value().is_finite(),
            "event time must be non-negative and finite, got {time}"
        );
        let key = (time.value().to_bits(), event.class(), self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
        self.peak_depth = self.peak_depth.max(self.heap.len());
    }

    /// Removes and returns the earliest event by `(time, class, seq)`.
    pub fn pop(&mut self) -> Option<(Seconds, Event)> {
        let Reverse(entry) = self.heap.pop()?;
        Some((Seconds::new(f64::from_bits(entry.key.0)), entry.event))
    }
}

#[cfg(test)]
mod tests {
    //! Several test names say "calendar", "overflow" or "cursor": they
    //! come from the bucketed calendar queue this heap replaced. The
    //! regimes they name — far-future events, pushes behind the last
    //! pop, re-arms that never let the queue drain — still pin the pop
    //! order.

    use super::*;
    use tps_units::Celsius;

    /// The ordering oracle: every pending event with its
    /// `(time, class, seq)` key, popped by a full min-scan.
    #[derive(Default)]
    struct Reference {
        pending: Vec<((u64, u8, u64), Event)>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, time: Seconds, event: Event) {
            self.pending
                .push(((time.value().to_bits(), event.class(), self.seq), event));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Seconds, Event)> {
            let best = (0..self.pending.len()).min_by_key(|&i| self.pending[i].0)?;
            let ((bits, ..), event) = self.pending.swap_remove(best);
            Some((Seconds::new(f64::from_bits(bits)), event))
        }

        fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }
    }

    #[test]
    fn calendar_orders_by_time_then_class_then_push_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(10.0);
        q.push(t, Event::JobArrival(0));
        q.push(t, Event::TelemetrySample);
        q.push(t, Event::ControlTick);
        q.push(t, Event::SetpointChange(Celsius::new(45.0)));
        q.push(t, Event::JobCompletion { job: 9, server: 1 });
        q.push(t, Event::JobStart { job: 8, server: 1 });
        q.push(Seconds::new(2.0), Event::JobArrival(7));
        assert_eq!(q.len(), 7);

        assert_eq!(q.pop(), Some((Seconds::new(2.0), Event::JobArrival(7))));
        assert_eq!(q.pop(), Some((t, Event::JobStart { job: 8, server: 1 })));
        assert_eq!(
            q.pop(),
            Some((t, Event::JobCompletion { job: 9, server: 1 }))
        );
        assert_eq!(
            q.pop(),
            Some((t, Event::SetpointChange(Celsius::new(45.0))))
        );
        assert_eq!(q.pop(), Some((t, Event::ControlTick)));
        assert_eq!(q.pop(), Some((t, Event::TelemetrySample)));
        assert_eq!(q.pop(), Some((t, Event::JobArrival(0))));
        assert!(q.is_empty());
        let stats = q.stats();
        assert_eq!(stats.pushed, 7);
        assert_eq!(stats.peak_depth, 7);
        assert!(stats.arena_high_water <= 7);
    }

    #[test]
    fn calendar_matches_the_reference_on_an_interleaved_stream() {
        // Deterministic pseudo-random interleaving (SplitMix64).
        fn mix(seed: u64, i: u64) -> u64 {
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut cal = EventQueue::new();
        let mut oracle = Reference::default();
        for i in 0..4000u64 {
            let r = mix(7, i);
            if r % 3 != 0 {
                // Cluster times so classes and seq break plenty of ties.
                let t = Seconds::new((r % 97) as f64 * 0.5);
                let (job, server) = (i as usize, 0);
                let event = match r % 6 {
                    0 => Event::JobArrival(job),
                    1 => Event::JobCompletion { job, server },
                    2 => Event::ControlTick,
                    3 => Event::TelemetrySample,
                    4 => Event::JobStart { job, server },
                    _ => Event::SetpointChange(Celsius::new(40.0)),
                };
                cal.push(t, event);
                oracle.push(t, event);
            } else {
                assert_eq!(cal.pop(), oracle.pop(), "diverged at op {i}");
            }
        }
        while !oracle.is_empty() {
            assert_eq!(cal.pop(), oracle.pop());
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn far_future_events_ride_the_overflow_list() {
        let mut q = EventQueue::new();
        // A tight cluster fixes a small width, then a far-future event
        // must overflow (≥ one year ahead) and still pop last.
        for i in 0..64usize {
            q.push(Seconds::new(i as f64 * 0.01), Event::JobArrival(i));
        }
        q.push(Seconds::new(1.0e9), Event::ControlTick);
        for i in 0..64usize {
            assert_eq!(
                q.pop(),
                Some((Seconds::new(i as f64 * 0.01), Event::JobArrival(i)))
            );
        }
        assert_eq!(q.pop(), Some((Seconds::new(1.0e9), Event::ControlTick)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn all_events_at_one_instant_pop_in_class_then_push_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(3.0);
        for id in [4usize, 2, 9] {
            q.push(t, Event::JobArrival(id));
        }
        q.push(t, Event::ControlTick);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            popped,
            vec![
                Event::ControlTick,
                Event::JobArrival(4),
                Event::JobArrival(2),
                Event::JobArrival(9)
            ]
        );
    }

    #[test]
    fn pushes_behind_the_cursor_rewind_the_calendar() {
        let mut q = EventQueue::new();
        for i in 0..100usize {
            q.push(Seconds::new(100.0 + i as f64), Event::JobArrival(i));
        }
        assert_eq!(q.pop().map(|(t, _)| t), Some(Seconds::new(100.0)));
        // Legal for the general API: a push earlier than the last pop.
        q.push(Seconds::new(0.5), Event::ControlTick);
        assert_eq!(q.pop(), Some((Seconds::new(0.5), Event::ControlTick)));
        assert_eq!(q.pop().map(|(t, _)| t), Some(Seconds::new(101.0)));
    }

    #[test]
    fn overflow_events_are_served_when_due_despite_constant_rearms() {
        // The kernel's worst case for a calendar queue: a control tick
        // that re-arms itself a short step ahead forever (so the calendar
        // never drains) while completions land far in the future (so they
        // start life in the overflow list). Every event must still pop in
        // key order — a starved overflow entry would either pop late or
        // never.
        let mut cal = EventQueue::new();
        let mut oracle = Reference::default();
        let push = |cal: &mut EventQueue, oracle: &mut Reference, t: f64, e: Event| {
            cal.push(Seconds::new(t), e);
            oracle.push(Seconds::new(t), e);
        };
        for i in 0..40usize {
            push(&mut cal, &mut oracle, i as f64 * 0.5, Event::JobArrival(i));
        }
        push(&mut cal, &mut oracle, 5.0, Event::ControlTick);
        push(&mut cal, &mut oracle, 0.0, Event::TelemetrySample);
        let mut completions = 0usize;
        for step in 0..5000u64 {
            let got = cal.pop();
            assert_eq!(got, oracle.pop(), "diverged at step {step}");
            let Some((now, event)) = got else { break };
            match event {
                Event::ControlTick => {
                    push(&mut cal, &mut oracle, now.value() + 5.0, Event::ControlTick);
                }
                Event::TelemetrySample => {
                    push(
                        &mut cal,
                        &mut oracle,
                        now.value() + 30.0,
                        Event::TelemetrySample,
                    );
                }
                Event::JobArrival(i) => {
                    // Single backlogged server: starts and completions
                    // stack up far beyond the calendar's current year.
                    let end = 500.0 + i as f64 * 90.0;
                    let (job, server) = (i, 0);
                    push(
                        &mut cal,
                        &mut oracle,
                        end - 90.0,
                        Event::JobStart { job, server },
                    );
                    push(
                        &mut cal,
                        &mut oracle,
                        end,
                        Event::JobCompletion { job, server },
                    );
                }
                Event::JobStart { .. } => {}
                Event::JobCompletion { .. } => {
                    completions += 1;
                    if completions == 40 {
                        // Fleet drained: stop re-arming and flush.
                        while let Some(got) = cal.pop() {
                            assert_eq!(Some(got), oracle.pop());
                        }
                        assert!(oracle.is_empty());
                        return;
                    }
                }
                Event::SetpointChange(_) => unreachable!(),
            }
        }
        panic!("queue starved: only {completions} of 40 completions popped");
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50usize {
            for i in 0..8usize {
                q.push(Seconds::new((round * 8 + i) as f64), Event::JobArrival(i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        let stats = q.stats();
        assert_eq!(stats.pushed, 400);
        // Steady-state depth 8: the arena never grows past the peak.
        assert!(
            stats.arena_high_water <= stats.peak_depth,
            "arena {} vs peak depth {}",
            stats.arena_high_water,
            stats.peak_depth
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn calendar_rejects_negative_times() {
        EventQueue::new().push(Seconds::new(-1.0), Event::ControlTick);
    }
}
