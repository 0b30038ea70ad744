//! Fleet-level demand generators: time-varying job-arrival intensity.
//!
//! The fleet simulator (`tps-cluster`) dispatches a *stream* of jobs, and
//! where the energy is won or lost depends on how that stream varies over
//! time: data-center load follows day/night cycles and exhibits short
//! correlated bursts. A [`DemandModel`] maps simulation time to an arrival
//! *rate* (jobs per second); [`synthesize_arrivals`] turns a model into a
//! concrete, reproducible arrival sequence by Poisson thinning.
//!
//! ```
//! use tps_units::Seconds;
//! use tps_workload::{synthesize_arrivals, DemandModel, DiurnalDemand};
//!
//! let day = DiurnalDemand::new(0.2, 1.0, Seconds::new(86_400.0));
//! assert!(day.rate_at(Seconds::new(43_200.0)) > day.rate_at(Seconds::ZERO));
//! let arrivals = synthesize_arrivals(&day, 100, 42);
//! assert_eq!(arrivals.len(), 100);
//! assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tps_units::Seconds;

/// A time-varying job-arrival intensity (jobs per second).
pub trait DemandModel {
    /// The instantaneous arrival rate at time `t`, in jobs per second.
    fn rate_at(&self, t: Seconds) -> f64;

    /// A tight upper bound on [`rate_at`](Self::rate_at) over all `t`,
    /// used as the majorizing rate for Poisson thinning.
    fn peak_rate(&self) -> f64;
}

/// A flat arrival rate: the homogeneous-Poisson baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantDemand {
    rate: f64,
}

impl ConstantDemand {
    /// A constant demand of `rate` jobs per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { rate }
    }
}

impl DemandModel for ConstantDemand {
    fn rate_at(&self, _t: Seconds) -> f64 {
        self.rate
    }

    fn peak_rate(&self) -> f64 {
        self.rate
    }
}

/// A day/night cycle: a raised-cosine oscillation between a trough rate at
/// `t = 0` and a peak rate half a period later.
///
/// `rate(t) = base + (peak − base) · (1 − cos(2πt/period)) / 2`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalDemand {
    base: f64,
    peak: f64,
    period: Seconds,
}

impl DiurnalDemand {
    /// A diurnal demand oscillating in `[base, peak]` with the given period.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ base ≤ peak`, `peak > 0` and the period is
    /// positive.
    pub fn new(base: f64, peak: f64, period: Seconds) -> Self {
        assert!(
            (0.0..=peak).contains(&base) && peak > 0.0 && peak.is_finite(),
            "need 0 <= base <= peak and a positive finite peak"
        );
        assert!(period.value() > 0.0, "period must be positive");
        Self { base, peak, period }
    }
}

impl DemandModel for DiurnalDemand {
    fn rate_at(&self, t: Seconds) -> f64 {
        let phase = core::f64::consts::TAU * t.value() / self.period.value();
        self.base + (self.peak - self.base) * 0.5 * (1.0 - phase.cos())
    }

    fn peak_rate(&self) -> f64 {
        self.peak
    }
}

/// Correlated load spikes over a quiet background: each *slot* of length
/// `mean_gap + burst_duration` contains exactly one burst window at a
/// seed-determined offset, during which the rate jumps from `base` to
/// `burst`.
///
/// The burst placement is a pure function of `(seed, slot index)`, so the
/// model needs no horizon and two instances with the same parameters agree
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyDemand {
    base: f64,
    burst: f64,
    burst_duration: Seconds,
    mean_gap: Seconds,
    seed: u64,
}

impl BurstyDemand {
    /// A bursty demand: background `base`, spike `burst`, one spike of
    /// `burst_duration` per `mean_gap + burst_duration` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ base ≤ burst`, `burst > 0` and both durations are
    /// positive.
    pub fn new(
        base: f64,
        burst: f64,
        burst_duration: Seconds,
        mean_gap: Seconds,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=burst).contains(&base) && burst > 0.0 && burst.is_finite(),
            "need 0 <= base <= burst and a positive finite burst rate"
        );
        assert!(
            burst_duration.value() > 0.0 && mean_gap.value() > 0.0,
            "burst duration and mean gap must be positive"
        );
        Self {
            base,
            burst,
            burst_duration,
            mean_gap,
            seed,
        }
    }

    /// The burst window inside slot `i`, as `(start, end)` in absolute time.
    fn burst_window(&self, slot: i64) -> (f64, f64) {
        let slot_len = self.mean_gap.value() + self.burst_duration.value();
        // SplitMix64 finalizer: a high-quality 64-bit mix of (seed, slot).
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let start = slot as f64 * slot_len + u * self.mean_gap.value();
        (start, start + self.burst_duration.value())
    }
}

impl DemandModel for BurstyDemand {
    fn rate_at(&self, t: Seconds) -> f64 {
        let slot_len = self.mean_gap.value() + self.burst_duration.value();
        let slot = (t.value() / slot_len).floor() as i64;
        // A burst can straddle a slot boundary only forwards, so the window
        // of the current slot is the only candidate containing `t`.
        let (start, end) = self.burst_window(slot);
        if (start..end).contains(&t.value()) {
            self.burst
        } else {
            self.base
        }
    }

    fn peak_rate(&self) -> f64 {
        self.burst
    }
}

/// An unbounded, lazily evaluated stream of arrival times drawn from a
/// demand model, produced by [`arrival_source`]; [`synthesize_arrivals`]
/// takes its first `n` times, so a longer batch extends a shorter one.
///
/// ```
/// use tps_units::Seconds;
/// use tps_workload::{synthesize_arrivals, DiurnalDemand};
///
/// let day = DiurnalDemand::new(0.2, 1.0, Seconds::new(600.0));
/// let long = synthesize_arrivals(&day, 50, 7);
/// assert_eq!(long[..20], synthesize_arrivals(&day, 20, 7)[..]);
/// ```
#[derive(Debug, Clone)]
pub(crate) struct ArrivalSource<'a, D: DemandModel + ?Sized> {
    demand: &'a D,
    thinning: Thinning,
}

impl<D: DemandModel + ?Sized> Iterator for ArrivalSource<'_, D> {
    type Item = Seconds;

    fn next(&mut self) -> Option<Seconds> {
        Some(self.thinning.next_arrival(self.demand))
    }
}

/// The thinning state both arrival streams ([`ArrivalSource`] and
/// [`RequestStream`]) draw their times through: a homogeneous Poisson
/// process at the model's peak rate, thinned to its instantaneous rate.
#[derive(Debug, Clone)]
struct Thinning {
    rng: StdRng,
    peak: f64,
    t: f64,
}

impl Thinning {
    /// Thinning for `demand` from the model's origin (`t = 0`).
    ///
    /// # Panics
    ///
    /// Panics if the model's peak rate is not positive and finite.
    fn new<D: DemandModel + ?Sized>(demand: &D, seed: u64) -> Self {
        let peak = demand.peak_rate();
        assert!(
            peak > 0.0 && peak.is_finite(),
            "peak rate must be positive and finite"
        );
        Self {
            rng: StdRng::seed_from_u64(seed),
            peak,
            t: 0.0,
        }
    }

    /// The next arrival under `demand`, the model this state was built
    /// for (the stream never ends: a demand model has a positive peak
    /// rate, so thinning accepts with positive probability).
    fn next_arrival<D: DemandModel + ?Sized>(&mut self, demand: &D) -> Seconds {
        loop {
            // Exponential inter-arrival at the majorizing rate…
            let u: f64 = self.rng.gen_range(0.0..1.0);
            self.t += -(1.0 - u).ln() / self.peak;
            // …thinned down to the instantaneous rate.
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * self.peak < demand.rate_at(Seconds::new(self.t)) {
                return Seconds::new(self.t);
            }
        }
    }
}

/// An unbounded arrival-time stream for `demand`, deterministic in
/// `seed`, by thinning a homogeneous Poisson process at the model's peak
/// rate. Times are non-decreasing from the model's origin (`t = 0`).
///
/// # Panics
///
/// Panics if the model's peak rate is not positive and finite.
pub(crate) fn arrival_source<D: DemandModel + ?Sized>(
    demand: &D,
    seed: u64,
) -> ArrivalSource<'_, D> {
    ArrivalSource {
        demand,
        thinning: Thinning::new(demand, seed),
    }
}

/// Samples `count` arrival times from a demand model, deterministically
/// from `seed`, by thinning a homogeneous Poisson process at the model's
/// peak rate.
///
/// The returned times are non-decreasing and start at the model's time
/// origin (`t = 0`).
///
/// # Panics
///
/// Panics if the model's peak rate is not positive and finite.
pub fn synthesize_arrivals<D: DemandModel>(demand: &D, count: usize, seed: u64) -> Vec<Seconds> {
    arrival_source(demand, seed).take(count).collect()
}

/// The online-serving demand shape: a diurnal day/night cycle multiplied
/// by flash-crowd surges — during a seed-determined burst window in each
/// slot (one window per `surge_gap + surge_duration` of simulated time)
/// the instantaneous rate is scaled by `surge`.
///
/// Like [`BurstyDemand`], window placement is a pure function of
/// `(seed, slot index)`, so the model needs no horizon and two instances
/// with the same parameters agree everywhere.
///
/// ```
/// use tps_units::Seconds;
/// use tps_workload::{DemandModel, ServingDemand};
///
/// let d = ServingDemand::new(
///     0.6, 2.0, Seconds::new(600.0),      // diurnal: trough, peak, period
///     3.0, Seconds::new(30.0), Seconds::new(240.0), // surge ×3, 30 s per ~270 s
///     42,
/// );
/// assert_eq!(d.peak_rate(), 6.0);
/// assert!(d.rate_at(Seconds::new(300.0)) >= 2.0 - 1e-12); // diurnal peak
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingDemand {
    diurnal: DiurnalDemand,
    surge: f64,
    window: BurstyDemand,
}

impl ServingDemand {
    /// A serving demand: diurnal oscillation in `[base, peak]` requests/s
    /// over `period`, multiplied by `surge` inside one window of
    /// `surge_duration` per `surge_gap + surge_duration` of time.
    ///
    /// # Panics
    ///
    /// Panics unless the diurnal parameters satisfy
    /// [`DiurnalDemand::new`]'s contract, `surge ≥ 1` is finite, and both
    /// surge durations are positive.
    pub fn new(
        base: f64,
        peak: f64,
        period: Seconds,
        surge: f64,
        surge_duration: Seconds,
        surge_gap: Seconds,
        seed: u64,
    ) -> Self {
        assert!(
            surge >= 1.0 && surge.is_finite(),
            "surge multiplier must be at least 1 and finite"
        );
        Self {
            diurnal: DiurnalDemand::new(base, peak, period),
            surge,
            // A unit-rate bursty model reused purely for its window
            // arithmetic: rate_at is 1.0 inside the surge window, 0.0 out.
            window: BurstyDemand::new(0.0, 1.0, surge_duration, surge_gap, seed),
        }
    }

    /// Whether `t` falls inside a flash-crowd surge window.
    pub(crate) fn in_surge(&self, t: Seconds) -> bool {
        self.window.rate_at(t) > 0.0
    }
}

impl DemandModel for ServingDemand {
    fn rate_at(&self, t: Seconds) -> f64 {
        let scale = if self.in_surge(t) { self.surge } else { 1.0 };
        self.diurnal.rate_at(t) * scale
    }

    fn peak_rate(&self) -> f64 {
        self.diurnal.peak_rate() * self.surge
    }
}

/// One short-lived service request in an open-loop stream: unlike a batch
/// job it carries its nominal service demand directly (no benchmark
/// phases), and its latency — queueing wait plus service — is the metric
/// of interest, not completion energy alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Position in the stream (0-based).
    pub id: usize,
    /// Arrival time from the stream origin (`t = 0`).
    pub arrival: Seconds,
    /// Nominal service demand at 1× slowdown.
    pub service: Seconds,
}

/// An unbounded open-loop request stream: Poisson-thinned arrivals from
/// an owned demand model plus per-request service demands, both
/// deterministic in the seed.
///
/// The arrival times are byte-identical to
/// [`synthesize_arrivals`]`(demand, n, seed)` — the service draws come
/// from an independent generator, so adding them does not perturb the
/// arrival process.
///
/// ```
/// use tps_units::Seconds;
/// use tps_workload::{request_stream, ConstantDemand, Request};
///
/// let reqs: Vec<Request> = request_stream(ConstantDemand::new(2.0), Seconds::new(1.5), 42)
///     .take(100)
///     .collect();
/// assert_eq!(reqs.len(), 100);
/// assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// // Service demands are uniform in [0.5, 1.5) × the mean.
/// assert!(reqs.iter().all(|r| (0.75..2.25).contains(&r.service.value())));
/// ```
#[derive(Debug, Clone)]
pub struct RequestStream<D: DemandModel> {
    demand: D,
    arrivals: Thinning,
    service_rng: StdRng,
    mean_service: f64,
    next_id: usize,
}

impl<D: DemandModel> Iterator for RequestStream<D> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let arrival = self.arrivals.next_arrival(&self.demand);
        let service = self.mean_service * self.service_rng.gen_range(0.5..1.5);
        let id = self.next_id;
        self.next_id += 1;
        Some(Request {
            id,
            arrival,
            service: Seconds::new(service),
        })
    }
}

/// An unbounded request stream over `demand`, deterministic in `seed`:
/// arrivals by Poisson thinning at the model's peak rate, service demands
/// uniform in `[0.5, 1.5) × mean_service` from an independent generator.
///
/// # Panics
///
/// Panics if the model's peak rate is not positive and finite, or if
/// `mean_service` is not positive and finite.
pub fn request_stream<D: DemandModel>(
    demand: D,
    mean_service: Seconds,
    seed: u64,
) -> RequestStream<D> {
    let arrivals = Thinning::new(&demand, seed);
    assert!(
        mean_service.value() > 0.0 && mean_service.value().is_finite(),
        "mean service demand must be positive and finite"
    );
    RequestStream {
        demand,
        arrivals,
        // Distinct stream: the same xor-split convention the job
        // synthesizer uses to decouple attribute draws from arrivals.
        service_rng: StdRng::seed_from_u64(seed ^ 0x243f_6a88_85a3_08d3),
        mean_service: mean_service.value(),
        next_id: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_demand_is_flat() {
        let d = ConstantDemand::new(0.5);
        assert_eq!(d.rate_at(Seconds::ZERO), 0.5);
        assert_eq!(d.rate_at(Seconds::new(1e6)), 0.5);
        assert_eq!(d.peak_rate(), 0.5);
    }

    #[test]
    fn diurnal_rate_is_periodic_and_bounded() {
        let d = DiurnalDemand::new(0.1, 1.0, Seconds::new(600.0));
        for i in 0..200 {
            let t = Seconds::new(f64::from(i) * 7.3);
            let r = d.rate_at(t);
            assert!((0.1..=1.0).contains(&r), "rate {r} escaped [base, peak]");
            let shifted = d.rate_at(t + d.period);
            assert!(
                (r - shifted).abs() < 1e-9,
                "period broken: {r} vs {shifted}"
            );
        }
        // Trough at t = 0, peak half a period later.
        assert!((d.rate_at(Seconds::ZERO) - 0.1).abs() < 1e-12);
        assert!((d.rate_at(Seconds::new(300.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bursty_rate_is_two_valued_and_bounded() {
        let d = BurstyDemand::new(0.2, 2.0, Seconds::new(10.0), Seconds::new(50.0), 9);
        let mut burst_samples = 0;
        let n = 6_000;
        for i in 0..n {
            let r = d.rate_at(Seconds::new(f64::from(i) * 0.1));
            assert!(r == 0.2 || r == 2.0, "rate {r} is neither base nor burst");
            if r == 2.0 {
                burst_samples += 1;
            }
        }
        // One 10 s burst per 60 s slot ⇒ ≈ 1/6 of samples hot.
        let frac = f64::from(burst_samples) / f64::from(n);
        assert!((0.08..=0.25).contains(&frac), "burst fraction {frac}");
    }

    #[test]
    fn bursty_windows_stay_inside_their_slot() {
        let d = BurstyDemand::new(0.0, 1.0, Seconds::new(5.0), Seconds::new(20.0), 3);
        for slot in 0..50i64 {
            let (start, end) = d.burst_window(slot);
            let slot_start = slot as f64 * 25.0;
            assert!(start >= slot_start && end <= slot_start + 25.0);
            assert!((end - start - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_are_deterministic_sorted_and_counted() {
        let d = DiurnalDemand::new(0.2, 1.0, Seconds::new(300.0));
        let a = synthesize_arrivals(&d, 250, 7);
        let b = synthesize_arrivals(&d, 250, 7);
        let c = synthesize_arrivals(&d, 250, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 250);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0].value() >= 0.0);
    }

    #[test]
    fn constant_arrivals_match_the_rate() {
        let d = ConstantDemand::new(2.0);
        let a = synthesize_arrivals(&d, 2_000, 11);
        let span = a.last().unwrap().value();
        let mean_gap = span / 2_000.0;
        assert!((mean_gap - 0.5).abs() < 0.05, "mean gap {mean_gap}");
    }

    #[test]
    fn diurnal_arrivals_cluster_around_the_peak() {
        let period = 1_000.0;
        let d = DiurnalDemand::new(0.05, 1.0, Seconds::new(period));
        let a = synthesize_arrivals(&d, 800, 5);
        // Fold into phase, split into peak half [P/4, 3P/4) vs trough half.
        let peak_half = a
            .iter()
            .filter(|t| {
                let phase = t.value().rem_euclid(period);
                (period / 4.0..3.0 * period / 4.0).contains(&phase)
            })
            .count();
        assert!(
            peak_half > a.len() * 2 / 3,
            "only {peak_half}/{} arrivals in the peak half-period",
            a.len()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ConstantDemand::new(0.0);
    }

    #[test]
    fn streaming_source_matches_the_batch_and_works_unsized() {
        let d = BurstyDemand::new(0.1, 1.5, Seconds::new(20.0), Seconds::new(80.0), 4);
        // Pulling lazily — including through a trait object, the form the
        // event kernel consumes — replays the batch exactly.
        let erased: &dyn DemandModel = &d;
        let streamed: Vec<Seconds> = arrival_source(erased, 13).take(120).collect();
        assert_eq!(streamed, synthesize_arrivals(&d, 120, 13));
        // Resuming the same iterator continues the stream seamlessly.
        let mut source = arrival_source(&d, 13);
        let head: Vec<Seconds> = source.by_ref().take(40).collect();
        let tail: Vec<Seconds> = source.take(80).collect();
        let joined: Vec<Seconds> = head.into_iter().chain(tail).collect();
        assert_eq!(joined, streamed);
    }

    #[test]
    fn serving_demand_multiplies_the_diurnal_rate_inside_surges() {
        let d = ServingDemand::new(
            0.4,
            2.0,
            Seconds::new(600.0),
            3.0,
            Seconds::new(30.0),
            Seconds::new(120.0),
            17,
        );
        let plain = DiurnalDemand::new(0.4, 2.0, Seconds::new(600.0));
        assert_eq!(d.peak_rate(), 6.0);
        let mut surged = 0;
        for i in 0..3_000 {
            let t = Seconds::new(f64::from(i) * 0.5);
            let expect = plain.rate_at(t) * if d.in_surge(t) { 3.0 } else { 1.0 };
            assert!((d.rate_at(t) - expect).abs() < 1e-12);
            if d.in_surge(t) {
                surged += 1;
            }
        }
        // One 30 s window per 150 s slot ⇒ ≈ 1/5 of samples surged.
        let frac = f64::from(surged) / 3_000.0;
        assert!((0.1..=0.3).contains(&frac), "surge fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unity_surge_rejected() {
        let _ = ServingDemand::new(
            0.4,
            2.0,
            Seconds::new(600.0),
            0.5,
            Seconds::new(30.0),
            Seconds::new(120.0),
            0,
        );
    }

    #[test]
    fn request_stream_reuses_the_arrival_process_verbatim() {
        let d = ServingDemand::new(
            0.5,
            2.0,
            Seconds::new(600.0),
            2.0,
            Seconds::new(30.0),
            Seconds::new(120.0),
            5,
        );
        let reqs: Vec<Request> = request_stream(d, Seconds::new(2.0), 21).take(150).collect();
        // Arrival times are exactly the thinned process — the service
        // draws ride a separate generator and cannot perturb them.
        let plain = synthesize_arrivals(&d, 150, 21);
        let times: Vec<Seconds> = reqs.iter().map(|r| r.arrival).collect();
        assert_eq!(times, plain);
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i));
        assert!(reqs.iter().all(|r| (1.0..3.0).contains(&r.service.value())));
        // Deterministic per seed, distinct across seeds.
        let again: Vec<Request> = request_stream(d, Seconds::new(2.0), 21).take(150).collect();
        let other: Vec<Request> = request_stream(d, Seconds::new(2.0), 22).take(150).collect();
        assert_eq!(reqs, again);
        assert_ne!(reqs, other);
    }
}
