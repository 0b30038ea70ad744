//! Jobs and job-stream synthesis.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tps_units::Seconds;
use tps_workload::{
    request_stream, synthesize_arrivals, Benchmark, DemandModel, QosClass, ServingDemand,
    WorkloadTrace,
};

/// One unit of work arriving at the fleet: a PARSEC application with a QoS
/// class, an arrival time and a native-configuration service demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Stream-unique identifier (index in arrival order).
    pub id: usize,
    /// The application to run.
    pub bench: Benchmark,
    /// The allowed slowdown class.
    pub qos: QosClass,
    /// Arrival time at the fleet front-end.
    pub arrival: Seconds,
    /// Execution time on the native `(8,16,f_max)` configuration. The
    /// actual runtime is `service × normalized_time` of the configuration
    /// Algorithm 1 selects for the job's QoS class.
    pub service: Seconds,
}

impl Job {
    /// The queueing-delay budget left after the selected configuration's
    /// slowdown: `(q_max − normalized_time) · service`. A job whose wait
    /// exceeds this misses its end-to-end QoS deadline.
    pub fn wait_budget(&self, normalized_time: f64) -> Seconds {
        self.service * (self.qos.max_slowdown() - normalized_time).max(0.0)
    }
}

/// The row-major position of `(bench, qos)` in the dense
/// |Benchmark|×|QosClass| grid. Both enums declare their variants in
/// `ALL` order, so ascending positions are the pairs' sort order.
pub(crate) fn pair_index(bench: Benchmark, qos: QosClass) -> usize {
    bench as usize * QosClass::ALL.len() + qos as usize
}

/// The sorted distinct `(bench, qos)` pairs of a job stream, read off a
/// presence table filled in one pass over the jobs.
pub(crate) fn demand_pairs(jobs: &[Job]) -> Vec<(Benchmark, QosClass)> {
    let mut present = [false; Benchmark::ALL.len() * QosClass::ALL.len()];
    for job in jobs {
        present[pair_index(job.bench, job.qos)] = true;
    }
    Benchmark::ALL
        .iter()
        .flat_map(|&bench| QosClass::ALL.iter().map(move |&qos| (bench, qos)))
        .filter(|&(bench, qos)| present[pair_index(bench, qos)])
        .collect()
}

/// The composition of a synthesized job stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMix {
    /// Relative weights of the 1×/2×/3× QoS classes.
    pub qos_weights: [f64; 3],
    /// Mean native-configuration service time; per-job demands are drawn
    /// from `[0.5, 1.5) × mean` and refined through
    /// [`WorkloadTrace::synthesize`].
    pub mean_service: Seconds,
}

impl Default for JobMix {
    /// A latency-diverse mix: 20 % interactive (1×), 40 % standard (2×),
    /// 40 % batch (3×), with a 40 s mean service time.
    fn default() -> Self {
        Self {
            qos_weights: [0.2, 0.4, 0.4],
            mean_service: Seconds::new(40.0),
        }
    }
}

impl JobMix {
    fn pick_qos(&self, u: f64) -> QosClass {
        let total: f64 = self.qos_weights.iter().sum();
        let mut acc = 0.0;
        for (w, q) in self.qos_weights.iter().zip(QosClass::ALL) {
            acc += w / total;
            if u < acc {
                return q;
            }
        }
        QosClass::ThreeX
    }
}

/// Synthesizes `count` jobs deterministically from `seed`: arrival times
/// from the demand model (Poisson thinning), benchmarks drawn uniformly
/// from the PARSEC suite, QoS classes from the mix weights, and service
/// demands from per-job [`WorkloadTrace`]s.
///
/// # Panics
///
/// Panics if the mix weights do not sum to a positive value or the demand
/// model's peak rate is not positive.
pub fn synthesize_jobs<D: DemandModel>(
    count: usize,
    demand: &D,
    mix: JobMix,
    seed: u64,
) -> Vec<Job> {
    assert!(
        mix.qos_weights.iter().sum::<f64>() > 0.0,
        "QoS mix weights must sum to a positive value"
    );
    let arrivals = synthesize_arrivals(demand, count, seed);
    // Attribute stream decoupled from the arrival stream so changing the
    // demand model does not reshuffle every job's identity.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c15_9e37_79b9_7f4a);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, arrival)| {
            let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
            let qos = mix.pick_qos(rng.gen_range(0.0..1.0));
            let nominal = mix.mean_service.value() * rng.gen_range(0.5..1.5);
            let trace_seed = rng.next_u64();
            let service =
                WorkloadTrace::synthesize(bench, Seconds::new(nominal), trace_seed).duration();
            Job {
                id,
                bench,
                qos,
                arrival,
                service,
            }
        })
        .collect()
}

/// Synthesizes `count` serving requests as kernel-ready [`Job`]s: arrival
/// times and service demands from an open-loop [`request_stream`] over the
/// serving demand model, benchmarks drawn uniformly from the PARSEC suite
/// through the same decoupled attribute stream [`synthesize_jobs`] uses.
///
/// Every request carries the interactive 1× QoS class: any queueing delay
/// at all blows the budget, so the violation count doubles as a
/// queued-request count and dispatchers minimize wait outright.
///
/// # Panics
///
/// Panics if `mean_service` is not positive and finite (via
/// [`request_stream`]).
pub fn synthesize_request_jobs(
    count: usize,
    demand: &ServingDemand,
    mean_service: Seconds,
    seed: u64,
) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c15_9e37_79b9_7f4a);
    request_stream(*demand, mean_service, seed)
        .take(count)
        .map(|req| {
            let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
            Job {
                id: req.id,
                bench,
                qos: QosClass::OneX,
                arrival: req.arrival,
                service: req.service,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_workload::ConstantDemand;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let d = ConstantDemand::new(1.0);
        let a = synthesize_jobs(60, &d, JobMix::default(), 42);
        let b = synthesize_jobs(60, &d, JobMix::default(), 42);
        let c = synthesize_jobs(60, &d, JobMix::default(), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 60);
    }

    #[test]
    fn jobs_arrive_in_order_with_positive_service() {
        let d = ConstantDemand::new(0.5);
        let jobs = synthesize_jobs(100, &d, JobMix::default(), 7);
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for j in &jobs {
            assert!(j.service.value() > 0.0);
            // Mean 40 s, nominal in [20, 60), trace clips to the request.
            assert!(j.service.value() < 61.0, "service {}", j.service);
        }
    }

    #[test]
    fn qos_mix_is_respected() {
        let d = ConstantDemand::new(1.0);
        let mix = JobMix {
            qos_weights: [1.0, 0.0, 0.0],
            mean_service: Seconds::new(10.0),
        };
        let jobs = synthesize_jobs(40, &d, mix, 3);
        assert!(jobs.iter().all(|j| j.qos == QosClass::OneX));
    }

    #[test]
    fn demand_pairs_match_a_sort_and_dedup() {
        let d = ConstantDemand::new(1.0);
        for (count, seed) in [(0, 1), (5, 2), (400, 3)] {
            let jobs = synthesize_jobs(count, &d, JobMix::default(), seed);
            let mut sorted: Vec<(Benchmark, QosClass)> =
                jobs.iter().map(|j| (j.bench, j.qos)).collect();
            sorted.sort();
            sorted.dedup();
            assert_eq!(demand_pairs(&jobs), sorted);
            for (i, &(bench, qos)) in sorted.iter().enumerate().skip(1) {
                let (pb, pq) = sorted[i - 1];
                assert!(pair_index(pb, pq) < pair_index(bench, qos));
            }
        }
    }

    #[test]
    fn wait_budget_scales_with_slack() {
        let job = Job {
            id: 0,
            bench: Benchmark::X264,
            qos: QosClass::TwoX,
            arrival: Seconds::ZERO,
            service: Seconds::new(30.0),
        };
        // Config at 1.5× slowdown leaves 0.5 × 30 s of queueing slack.
        assert!((job.wait_budget(1.5).value() - 15.0).abs() < 1e-12);
        // An exactly-at-deadline config leaves none; over-deadline clamps.
        assert_eq!(job.wait_budget(2.0), Seconds::ZERO);
        assert_eq!(job.wait_budget(2.5), Seconds::ZERO);
    }

    #[test]
    fn request_jobs_are_interactive_and_deterministic() {
        let d = ServingDemand::new(
            0.4,
            2.0,
            Seconds::new(600.0),
            2.5,
            Seconds::new(30.0),
            Seconds::new(120.0),
            42,
        );
        let a = synthesize_request_jobs(80, &d, Seconds::new(2.0), 42);
        let b = synthesize_request_jobs(80, &d, Seconds::new(2.0), 42);
        let c = synthesize_request_jobs(80, &d, Seconds::new(2.0), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 80);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for j in &a {
            assert_eq!(j.qos, QosClass::OneX);
            // Requests are short: mean 2 s, uniform in [1, 3).
            assert!((1.0..3.0).contains(&j.service.value()), "{}", j.service);
        }
    }
}
