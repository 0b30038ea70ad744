//! The arena-backed calendar event queue that drives the kernel.
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
//! [`CalendarQueue`] is Brown's classic design, adapted for determinism
//! and arena storage:
//!
//! * entries live in a flat arena (`Vec<Entry>` plus a free list), so a
//!   million-event run performs a handful of allocations instead of one
//!   per event;
//! * the bucket array covers one *year* of virtual time
//!   (`nbuckets × width`); an event at time `t` hashes to bucket
//!   `⌊t/width⌋ mod nbuckets`, and every bucket holds events of exactly
//!   one virtual bucket index, so a pop scans one bucket for the minimum
//!   key;
//! * events scheduled beyond the current year go to an *overflow* list
//!   (with its minimum key cached) and are folded back in bulk when one
//!   comes due or the calendar drains — far-future telemetry or
//!   completion events never slow the near-term scan;
//! * the bucket count doubles/halves with occupancy and the bucket width
//!   is re-derived from the live span at each resize, so both dense
//!   (million pre-pushed arrivals) and sparse (a lone control tick)
//!   regimes stay O(1) amortized per operation.

use crate::engine::Event;
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
    /// High-water mark of arena slots ever allocated.
    pub arena_high_water: usize,
}

/// One scheduled event in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `(time_bits, class, seq)` — the queue's total pop order.
    key: (u64, u8, u64),
    event: Event,
}

/// Smallest bucket count; kept a power of two so the slot computation is
/// a mask.
const MIN_BUCKETS: usize = 16;

/// An arena-backed calendar queue popping events in exact
/// `(time, class, seq)` order.
///
/// ```
/// use tps_cluster::{CalendarQueue, Event};
/// use tps_units::Seconds;
///
/// let mut q = CalendarQueue::new();
/// q.push(Seconds::new(5.0), Event::JobArrival(1));
/// q.push(Seconds::new(5.0), Event::JobCompletion { job: 0, server: 0 });
/// q.push(Seconds::new(1.0), Event::ControlTick);
/// // Earliest time first; at equal times completions precede arrivals.
/// assert_eq!(q.pop(), Some((Seconds::new(1.0), Event::ControlTick)));
/// assert!(matches!(q.pop(), Some((_, Event::JobCompletion { .. }))));
/// assert_eq!(q.pop(), Some((Seconds::new(5.0), Event::JobArrival(1))));
/// assert_eq!(q.pop(), None);
/// assert!(q.stats().peak_depth >= 3);
/// ```
#[derive(Debug)]
pub struct CalendarQueue {
    /// All entries ever scheduled; slots are recycled through `free`.
    arena: Vec<Entry>,
    free: Vec<u32>,
    /// `buckets[vb % nbuckets]` holds exactly the entries of virtual
    /// bucket `vb`, for `vb` in `[base, base + nbuckets)`.
    buckets: Vec<Vec<u32>>,
    /// Entries at virtual buckets `≥ base + nbuckets` (the far future),
    /// folded back into the calendar when one comes due or the calendar
    /// drains.
    overflow: Vec<u32>,
    /// Smallest key in `overflow` (`None` when empty): pop compares the
    /// best calendar-resident key against it so an overflow event that
    /// comes due is served on time even while near-term re-arms keep the
    /// calendar from ever draining.
    overflow_min: Option<(u64, u8, u64)>,
    /// Seconds of virtual time each bucket covers.
    width: f64,
    /// Lower bound (inclusive) of the calendar's current year, as a
    /// virtual bucket index; no pending entry maps below it.
    base: u64,
    len: usize,
    seq: u64,
    pushed: u64,
    peak_depth: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            arena: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); MIN_BUCKETS],
            overflow: Vec::new(),
            overflow_min: None,
            width: 1.0,
            base: 0,
            len: 0,
            seq: 0,
            pushed: 0,
            peak_depth: 0,
        }
    }

    /// The virtual bucket an event time maps to (saturating cast: times
    /// past `u64::MAX × width` all land in the last representable bucket,
    /// which only coarsens their bucketing, never their pop order).
    fn vbucket(&self, time_bits: u64) -> u64 {
        (f64::from_bits(time_bits) / self.width) as u64
    }

    fn alloc(&mut self, entry: Entry) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.arena[i as usize] = entry;
                i
            }
            None => {
                let i = u32::try_from(self.arena.len()).expect("calendar arena capped at 2^32");
                self.arena.push(entry);
                i
            }
        }
    }

    /// Files an already-allocated entry into its bucket or the overflow
    /// list. Caller guarantees `vb ≥ base`.
    fn file(&mut self, idx: u32) {
        let vb = self.vbucket(self.arena[idx as usize].key.0);
        debug_assert!(vb >= self.base);
        if vb - self.base >= self.buckets.len() as u64 {
            let key = self.arena[idx as usize].key;
            if self.overflow_min.is_none_or(|m| key < m) {
                self.overflow_min = Some(key);
            }
            self.overflow.push(idx);
        } else {
            let slot = (vb % self.buckets.len() as u64) as usize;
            self.buckets[slot].push(idx);
        }
    }

    /// Rebuilds the bucket array: re-derives the width from the live
    /// span, resizes to `nbuckets`, resets `base` to the earliest pending
    /// entry and refiles everything. Deterministic — a pure function of
    /// the queue's current contents.
    fn rebuild(&mut self, nbuckets: usize) {
        let live: Vec<u32> = self
            .buckets
            .iter_mut()
            .flat_map(std::mem::take)
            .chain(self.overflow.drain(..))
            .collect();
        debug_assert_eq!(live.len(), self.len);
        self.overflow_min = None;
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &i in &live {
            let t = f64::from_bits(self.arena[i as usize].key.0);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // Width ≈ the mean inter-event gap, clamped positive and finite;
        // a degenerate span (empty, or all events at one instant) keeps
        // the previous width so the mapping stays well defined.
        if self.len >= 2 && hi > lo {
            self.width = ((hi - lo) / self.len as f64).max(f64::MIN_POSITIVE);
        }
        self.buckets = vec![Vec::new(); nbuckets.max(MIN_BUCKETS)];
        self.base = if lo.is_finite() {
            self.vbucket(lo.to_bits())
        } else {
            0
        };
        for i in live {
            self.file(i);
        }
    }

    /// Lifetime depth/storage counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.pushed,
            peak_depth: self.peak_depth,
            arena_high_water: self.arena.len(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.pushed += 1;
        let idx = self.alloc(Entry { key, event });
        self.len += 1;
        self.peak_depth = self.peak_depth.max(self.len);
        let vb = self.vbucket(key.0);
        if vb < self.base {
            // A push behind the calendar's cursor (never the kernel —
            // events are scheduled at or after `now` — but legal for the
            // general API): rewind by rebuilding around the new minimum.
            let n = self.buckets.len();
            self.buckets[(vb % n as u64) as usize].push(idx);
            self.rebuild(n);
        } else {
            self.file(idx);
        }
        if self.len > 2 * self.buckets.len() {
            let n = self.buckets.len() * 2;
            self.rebuild(n);
        }
    }

    /// Removes and returns the earliest event by `(time, class, seq)`.
    pub fn pop(&mut self) -> Option<(Seconds, Event)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Scan at most one year of buckets from the calendar cursor;
            // the bucketing invariant (one virtual bucket per slot, all in
            // `[base, base + n)`) means the first non-empty slot in scan
            // order holds the earliest calendar-resident key.
            let n = self.buckets.len() as u64;
            let mut found = None;
            let mut vb = self.base;
            for _ in 0..n {
                let slot = (vb % n) as usize;
                if !self.buckets[slot].is_empty() {
                    found = Some((slot, vb));
                    break;
                }
                vb += 1;
            }
            let Some((slot, vb)) = found else {
                // The calendar year is empty but events remain: they are
                // all in the overflow list — rebuild the calendar around
                // them (re-deriving the width for the new time span).
                debug_assert!(!self.overflow.is_empty());
                let n = self.buckets.len();
                self.rebuild(n);
                continue;
            };
            let bucket = &self.buckets[slot];
            let mut best = 0;
            let mut best_key = self.arena[bucket[0] as usize].key;
            for (j, &i) in bucket.iter().enumerate().skip(1) {
                let key = self.arena[i as usize].key;
                if key < best_key {
                    best = j;
                    best_key = key;
                }
            }
            // An overflow event can come due while near-term re-arms keep
            // the calendar busy (so the drained-calendar path above never
            // runs): fold it back in before serving anything later than
            // it. After the rebuild the overflow minimum is strictly
            // later than the best bucketed key, so this cannot loop.
            if self.overflow_min.is_some_and(|m| m < best_key) {
                let n = self.buckets.len();
                self.rebuild(n);
                continue;
            }
            let idx = self.buckets[slot].swap_remove(best);
            self.free.push(idx);
            self.len -= 1;
            self.base = vb;
            let entry = self.arena[idx as usize];
            if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
                let half = self.buckets.len() / 2;
                self.rebuild(half);
            }
            return Some((Seconds::new(f64::from_bits(entry.key.0)), entry.event));
        }
    }
}

#[cfg(test)]
mod tests {
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
        let mut q = CalendarQueue::new();
        let t = Seconds::new(10.0);
        q.push(t, Event::JobArrival(0));
        q.push(t, Event::TelemetrySample);
        q.push(t, Event::ControlTick);
        q.push(t, Event::SetpointChange(Celsius::new(45.0)));
        q.push(t, Event::JobCompletion { job: 9, server: 1 });
        q.push(Seconds::new(2.0), Event::JobArrival(7));
        assert_eq!(q.len(), 6);

        assert_eq!(q.pop(), Some((Seconds::new(2.0), Event::JobArrival(7))));
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
        assert_eq!(stats.pushed, 6);
        assert_eq!(stats.peak_depth, 6);
        assert!(stats.arena_high_water <= 6);
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
        let mut cal = CalendarQueue::new();
        let mut oracle = Reference::default();
        for i in 0..4000u64 {
            let r = mix(7, i);
            if r % 3 != 0 {
                // Cluster times so classes and seq break plenty of ties.
                let t = Seconds::new((r % 97) as f64 * 0.5);
                let event = match r % 5 {
                    0 => Event::JobArrival(i as usize),
                    1 => Event::JobCompletion {
                        job: i as usize,
                        server: 0,
                    },
                    2 => Event::ControlTick,
                    3 => Event::TelemetrySample,
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
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
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
        let mut cal = CalendarQueue::new();
        let mut oracle = Reference::default();
        let push = |cal: &mut CalendarQueue, oracle: &mut Reference, t: f64, e: Event| {
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
                    // Single backlogged server: completions stack up far
                    // beyond the calendar's current year.
                    let end = 500.0 + i as f64 * 90.0;
                    push(
                        &mut cal,
                        &mut oracle,
                        end,
                        Event::JobCompletion { job: i, server: 0 },
                    );
                }
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
        let mut q = CalendarQueue::new();
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
        CalendarQueue::new().push(Seconds::new(-1.0), Event::ControlTick);
    }
}
