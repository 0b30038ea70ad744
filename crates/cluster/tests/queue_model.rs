//! Model-based property tests for the kernel's event queue: any
//! interleaving of pushes and pops must produce exactly the pop order of
//! a naive sorted-`Vec` model of the kernel's `(time, class, seq)` key —
//! including same-instant ties, all-events-at-one-time degeneracy and
//! far-future times (the regimes that once stressed a bucketed calendar
//! queue's overflow list).

use proptest::prelude::*;
use tps_cluster::{Event, EventQueue};
use tps_units::{Celsius, Seconds};

/// SplitMix64, the same deterministic mix the workload layer uses.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn event_for(r: u64, i: u64) -> Event {
    match r % 6 {
        0 => Event::JobArrival(i as usize),
        1 => Event::JobCompletion {
            job: i as usize,
            server: (r % 7) as usize,
        },
        2 => Event::ControlTick,
        3 => Event::TelemetrySample,
        4 => Event::JobStart {
            job: i as usize,
            server: (r % 7) as usize,
        },
        _ => Event::SetpointChange(Celsius::new(35.0 + (r % 20) as f64)),
    }
}

/// The naive model: every pending event with the exact key the kernel
/// queues order by, popped by a full min-scan.
#[derive(Default)]
struct SortedVecModel {
    pending: Vec<((u64, u8, u64), Seconds, Event)>,
    seq: u64,
}

impl SortedVecModel {
    fn push(&mut self, time: Seconds, event: Event) {
        // The class component mirrors the kernel's same-instant ordering:
        // starts < completions < set-points < ticks < samples < arrivals.
        let class = match event {
            Event::JobStart { .. } => 0u8,
            Event::JobCompletion { .. } => 1,
            Event::SetpointChange(_) => 2,
            Event::ControlTick => 3,
            Event::TelemetrySample => 4,
            Event::JobArrival(_) => 5,
        };
        self.pending
            .push(((time.value().to_bits(), class, self.seq), time, event));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Seconds, Event)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (key, _, _))| *key)?
            .0;
        let (_, t, e) = self.pending.remove(best);
        Some((t, e))
    }
}

proptest! {
    /// Random interleavings of pushes (clustered times, so class and seq
    /// break plenty of ties) and pops match the sorted-`Vec` model
    /// exactly, then drain in identical order.
    #[test]
    fn calendar_queue_matches_the_sorted_vec_model(
        seed in 0u64..300,
        ops in 1usize..400,
        spread in 1u64..4,
    ) {
        let mut cal = EventQueue::new();
        let mut model = SortedVecModel::default();
        for i in 0..ops as u64 {
            let r = mix(seed, i);
            if r % 3 != 0 {
                // Time grid coarsens with `spread`: spread 1 forces many
                // exact ties, spread 3 scatters across ~1e4 seconds.
                let t = Seconds::new(
                    (r % 23) as f64 * 10f64.powi(spread as i32 - 1) * 0.5,
                );
                let event = event_for(r >> 8, i);
                cal.push(t, event);
                model.push(t, event);
            } else {
                prop_assert_eq!(cal.pop(), model.pop(), "model diverged at op {}", i);
            }
            prop_assert_eq!(cal.len(), model.pending.len());
        }
        loop {
            let got = cal.pop();
            prop_assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
    }

    /// Every event at one instant: pop order degenerates to pure
    /// `(class, push order)` and the calendar's single-bucket pile-up
    /// must not reorder or lose anything.
    #[test]
    fn all_events_at_one_instant_match_the_model(
        seed in 0u64..200,
        n in 1usize..120,
        t in 0u32..1000,
    ) {
        let mut cal = EventQueue::new();
        let mut model = SortedVecModel::default();
        let at = Seconds::new(t as f64 * 0.25);
        for i in 0..n as u64 {
            let event = event_for(mix(seed, i), i);
            cal.push(at, event);
            model.push(at, event);
        }
        for _ in 0..n {
            prop_assert_eq!(cal.pop(), model.pop());
        }
        prop_assert!(cal.is_empty());
    }

    /// Near-term and far-future pushes interleaved with pops: far events
    /// enter the overflow list, and must still pop exactly when the model
    /// says — even while near-term re-pushes keep the calendar busy
    /// (the regime that starves a drain-only overflow promotion).
    #[test]
    fn far_future_overflow_pops_in_model_order(
        seed in 0u64..200,
        rounds in 1usize..60,
    ) {
        let mut cal = EventQueue::new();
        let mut model = SortedVecModel::default();
        let mut now = 0.0f64;
        for i in 0..rounds as u64 {
            let r = mix(seed, i);
            // A near event just ahead of the cursor...
            let near = Seconds::new(now + 1.0 + unit(seed, 3 * i) * 5.0);
            let e1 = event_for(r, i);
            cal.push(near, e1);
            model.push(near, e1);
            // ...and a far one (minutes to ~a year ahead).
            let far = Seconds::new(now + 100.0 * 10f64.powi((r % 4) as i32));
            let e2 = event_for(r >> 16, i);
            cal.push(far, e2);
            model.push(far, e2);
            // Pop one: the cursor chases the near events while far ones
            // accumulate in overflow.
            let got = cal.pop();
            prop_assert_eq!(got, model.pop(), "diverged at round {}", i);
            if let Some((t, _)) = got {
                now = t.value();
            }
        }
        loop {
            let got = cal.pop();
            prop_assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
    }
}
