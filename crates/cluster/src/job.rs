//! Jobs and job-stream synthesis.

use crate::fleet::FleetConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tps_units::Seconds;
use tps_workload::{
    request_stream, synthesize_arrivals, Benchmark, DemandModel, QosClass, ServingDemand,
    WorkloadTrace,
};

/// Jobs per chunk of the service-time fan-out: each chunk replays its
/// attribute draws from one checkpoint of the attribute stream.
const SYNTH_CHUNK: usize = 4096;

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
/// presence table filled in one pass over the jobs: the pairs
/// [`Fleet::warm`](crate::Fleet::warm) needs to cover the stream.
pub fn demand_pairs(jobs: &[Job]) -> Vec<(Benchmark, QosClass)> {
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
    /// Mean native-configuration service time. Each job draws a nominal
    /// demand from `[0.5, 1.5) × mean`, and its service time is the total
    /// of the phase trace [`WorkloadTrace::synthesize`] would build for
    /// that demand, replayed through
    /// [`WorkloadTrace::synthesized_duration`] without storing the phases.
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

/// The attribute stream of a job stream seeded with `seed`: decoupled
/// from the arrival stream so changing the demand model does not reshuffle
/// every job's identity.
fn attribute_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7c15_9e37_79b9_7f4a)
}

/// One job's draws from the attribute stream, in stream order: its
/// benchmark, QoS class, nominal service demand and trace seed.
fn draw_attributes(rng: &mut StdRng, mix: &JobMix) -> (Benchmark, QosClass, Seconds, u64) {
    let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
    let qos = mix.pick_qos(rng.gen_range(0.0..1.0));
    let nominal = mix.mean_service.value() * rng.gen_range(0.5..1.5);
    (bench, qos, Seconds::new(nominal), rng.next_u64())
}

/// Synthesizes `count` jobs deterministically from `seed`: arrival times
/// from the demand model (Poisson thinning), benchmarks drawn uniformly
/// from the PARSEC suite, QoS classes from the mix weights, and service
/// demands from per-job phase traces, each replayed for its total by
/// [`WorkloadTrace::synthesized_duration`] (the same value, bit for bit,
/// as `WorkloadTrace::synthesize(..).duration()`).
///
/// Service times are replayed on up to [`FleetConfig::default_threads`]
/// threads while the calling thread runs the sequential arrival chain;
/// the result does not depend on the thread count.
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
    synthesize_jobs_across(count, demand, mix, seed, FleetConfig::default_threads())
}

/// [`synthesize_jobs`] on up to `width` threads, the calling one
/// included, and never more workers than there are chunks.
///
/// Workers pull [`SYNTH_CHUNK`]-job chunks of the one output buffer, in
/// order, from a shared list that pairs each chunk with a checkpoint: a
/// copy of the attribute generator at the chunk's first job. Each worker
/// re-draws its chunk's attributes from that checkpoint, so every job sees
/// the draws a single sequential pass would give it, whichever thread
/// fills it. Meanwhile the calling thread runs the arrival chain, which is
/// sequential by nature, joins the chunk list when it is done, and writes
/// the arrivals in last.
pub(crate) fn synthesize_jobs_across<D: DemandModel>(
    count: usize,
    demand: &D,
    mix: JobMix,
    seed: u64,
    width: usize,
) -> Vec<Job> {
    assert!(
        mix.qos_weights.iter().sum::<f64>() > 0.0,
        "QoS mix weights must sum to a positive value"
    );
    let workers = width.saturating_sub(1).min(count.div_ceil(SYNTH_CHUNK));
    let mut jobs: Vec<Job> = (0..count)
        .map(|id| Job {
            id,
            bench: Benchmark::ALL[0],
            qos: QosClass::OneX,
            arrival: Seconds::ZERO,
            service: Seconds::ZERO,
        })
        .collect();
    let arrivals = {
        // Handing out a chunk advances the shared generator past it: the
        // same draws per job, values discarded.
        let mut rng = attribute_rng(seed);
        let pending = Mutex::new(jobs.chunks_mut(SYNTH_CHUNK).map(|chunk| {
            let checkpoint = rng.clone();
            for _ in 0..chunk.len() {
                draw_attributes(&mut rng, &mix);
            }
            (checkpoint, chunk)
        }));
        let replay = || loop {
            let next = pending
                .lock()
                .expect("no replay panics holding the list")
                .next();
            let Some((mut rng, chunk)) = next else {
                break;
            };
            for job in chunk {
                let (bench, qos, nominal, trace_seed) = draw_attributes(&mut rng, &mix);
                job.bench = bench;
                job.qos = qos;
                job.service = WorkloadTrace::synthesized_duration(bench, nominal, trace_seed);
            }
        };
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(replay);
            }
            let arrivals = synthesize_arrivals(demand, count, seed);
            replay();
            arrivals
        })
    };
    for (job, arrival) in jobs.iter_mut().zip(arrivals) {
        job.arrival = arrival;
    }
    jobs
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
    let mut rng = attribute_rng(seed);
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
    use tps_workload::{BurstyDemand, ConstantDemand, DiurnalDemand};

    /// The sequential synthesis with one allocating [`WorkloadTrace`] per
    /// job: the oracle the fan-out must reproduce bit for bit.
    fn oracle_jobs<D: DemandModel>(count: usize, demand: &D, mix: JobMix, seed: u64) -> Vec<Job> {
        let arrivals = synthesize_arrivals(demand, count, seed);
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

    /// `got` equals `want` field for field, floats compared by bits.
    fn assert_same_bits(got: &[Job], want: &[Job], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!((g.id, g.bench, g.qos), (w.id, w.bench, w.qos), "{what}");
            assert_eq!(
                (g.arrival.value().to_bits(), g.service.value().to_bits()),
                (w.arrival.value().to_bits(), w.service.value().to_bits()),
                "{what}: job {}",
                w.id
            );
        }
    }

    /// The fan-out at widths 1, 2, 3 and 8 equals the oracle on either
    /// side of the chunk size, where a second worker starts, and on a
    /// stream of more chunks than width 8 has workers.
    fn check_fan_out<D: DemandModel>(demand: &D) {
        let (mix, seed) = (JobMix::default(), 11);
        // A stream is a prefix of any longer one from the same seed
        // (arrivals and attributes are both drawn in order), so one
        // oracle serves every count. `chunk + 1` and `9 × chunk + 123`
        // end in a partial chunk.
        let longest = 9 * SYNTH_CHUNK + 123;
        let oracle = oracle_jobs(longest, demand, mix, seed);
        for count in [0, 1, SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1, longest] {
            for width in [1, 2, 3, 8] {
                let got = synthesize_jobs_across(count, demand, mix, seed, width);
                let what = format!("{count} jobs, width {width}");
                assert_same_bits(&got, &oracle[..count], &what);
            }
        }
    }

    #[test]
    fn fan_out_matches_the_oracle_under_constant_demand() {
        check_fan_out(&ConstantDemand::new(0.7));
    }

    #[test]
    fn fan_out_matches_the_oracle_under_diurnal_demand() {
        check_fan_out(&DiurnalDemand::new(0.14, 0.7, Seconds::new(600.0)));
    }

    #[test]
    fn fan_out_matches_the_oracle_under_bursty_demand() {
        let burst = Seconds::new(60.0);
        check_fan_out(&BurstyDemand::new(0.1, 0.7, burst, Seconds::new(240.0), 11));
    }

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
