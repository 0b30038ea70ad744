//! Phase-based workload traces.
//!
//! Real PARSEC executions alternate between compute-heavy and memory-heavy
//! phases (the paper's runtime controller reacts to the resulting thermal
//! transients). [`WorkloadTrace::synthesize`] generates a reproducible
//! phase sequence per benchmark for the runtime-control example, and
//! [`WorkloadTrace::synthesized_duration`] replays the same sequence for
//! its total alone, without storing it.

use crate::benchmark::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tps_units::Seconds;

/// One execution phase: a duration and a dynamic-power scale factor relative
/// to the benchmark's average dynamic power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Phase {
    /// Phase duration.
    pub duration: Seconds,
    /// Dynamic-power multiplier in `[0.3, 1.5]` (1.0 = profile average).
    pub power_scale: f64,
}

/// A sequence of phases approximating one benchmark execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    phases: Vec<Phase>,
}

impl WorkloadTrace {
    /// Synthesizes a trace of roughly `total` seconds for `bench`,
    /// deterministically from `seed`.
    ///
    /// Compute-bound benchmarks produce long, hot phases; memory-bound ones
    /// alternate faster between cooler stall phases and bursts.
    pub fn synthesize(bench: Benchmark, total: Seconds, seed: u64) -> Self {
        Self {
            phases: Phases::new(bench, total, seed).collect(),
        }
    }

    /// The [`duration`](Self::duration) of
    /// `WorkloadTrace::synthesize(bench, total, seed)`, bit for bit,
    /// without allocating: it folds the same phase generator through the
    /// same sum (an empty trace is `-0.0` s in both).
    pub fn synthesized_duration(bench: Benchmark, total: Seconds, seed: u64) -> Seconds {
        Phases::new(bench, total, seed).map(|p| p.duration).sum()
    }

    /// Total trace duration.
    pub fn duration(&self) -> Seconds {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The power scale in effect at time `t` (clamped to the last phase).
    pub fn power_scale_at(&self, t: Seconds) -> f64 {
        let mut acc = 0.0;
        for p in &self.phases {
            acc += p.duration.value();
            if t.value() < acc {
                return p.power_scale;
            }
        }
        self.phases.last().map_or(1.0, |p| p.power_scale)
    }
}

/// The phase generator behind both [`WorkloadTrace::synthesize`] and
/// [`WorkloadTrace::synthesized_duration`]: one RNG draw sequence and one
/// `elapsed` chain, so the two cannot drift apart.
struct Phases {
    rng: StdRng,
    mean_phase_s: f64,
    swing: f64,
    total: f64,
    elapsed: f64,
    hot: bool,
}

impl Phases {
    fn new(bench: Benchmark, total: Seconds, seed: u64) -> Self {
        let mem = bench.profile().mem_fraction();
        // Memory-bound ⇒ shorter phases, larger swing around a lower mean.
        Self {
            rng: StdRng::seed_from_u64(seed),
            mean_phase_s: 2.0 - 1.5 * mem,
            swing: 0.15 + 0.5 * mem,
            total: total.value(),
            elapsed: 0.0,
            hot: true,
        }
    }
}

impl Iterator for Phases {
    type Item = Phase;

    fn next(&mut self) -> Option<Phase> {
        if self.elapsed < self.total {
            let dur =
                (self.mean_phase_s * self.rng.gen_range(0.5..1.5)).min(self.total - self.elapsed);
            let base = if self.hot {
                1.0 + self.swing
            } else {
                1.0 - self.swing
            };
            let scale = (base + self.rng.gen_range(-0.1..0.1)).clamp(0.3, 1.5);
            self.elapsed += dur;
            self.hot = !self.hot;
            Some(Phase {
                duration: Seconds::new(dur),
                power_scale: scale,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = WorkloadTrace::synthesize(Benchmark::X264, Seconds::new(20.0), 7);
        let b = WorkloadTrace::synthesize(Benchmark::X264, Seconds::new(20.0), 7);
        let c = WorkloadTrace::synthesize(Benchmark::X264, Seconds::new(20.0), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn duration_matches_request() {
        let t = WorkloadTrace::synthesize(Benchmark::Canneal, Seconds::new(30.0), 1);
        assert!((t.duration().value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn scales_are_bounded() {
        let t = WorkloadTrace::synthesize(Benchmark::Streamcluster, Seconds::new(60.0), 3);
        for p in &t.phases {
            assert!((0.3..=1.5).contains(&p.power_scale));
            assert!(p.duration.value() > 0.0);
        }
        // Time-weighted, the scales average ≈ 1.0 by construction.
        let weighted: f64 = t
            .phases
            .iter()
            .map(|p| p.power_scale * p.duration.value())
            .sum();
        let avg = weighted / t.duration().value();
        assert!((0.7..=1.3).contains(&avg), "average scale {avg}");
    }

    #[test]
    fn memory_bound_traces_have_more_phases() {
        let mem = WorkloadTrace::synthesize(Benchmark::Canneal, Seconds::new(60.0), 4);
        let cpu = WorkloadTrace::synthesize(Benchmark::Swaptions, Seconds::new(60.0), 4);
        assert!(mem.phases.len() > cpu.phases.len());
    }

    #[test]
    fn zero_total_yields_an_empty_trace() {
        let t = WorkloadTrace::synthesize(Benchmark::X264, Seconds::ZERO, 1);
        assert!(t.phases.is_empty());
        assert_eq!(t.duration(), Seconds::ZERO);
        // Degenerate lookups still answer something sane.
        assert_eq!(t.power_scale_at(Seconds::new(5.0)), 1.0);
    }

    #[test]
    fn tiny_total_yields_exactly_one_phase() {
        // The shortest possible phase is mean_phase_s × 0.5 ≥ 0.25 s, so a
        // 0.1 s request must be clipped into a single phase of that length.
        for b in [Benchmark::Swaptions, Benchmark::Canneal] {
            let t = WorkloadTrace::synthesize(b, Seconds::new(0.1), 2);
            assert_eq!(t.phases.len(), 1, "{b}");
            assert!((t.duration().value() - 0.1).abs() < 1e-12, "{b}");
        }
    }

    #[test]
    fn same_seed_same_benchmark_regardless_of_call_order() {
        // The generator must not leak state between calls: interleaving
        // other syntheses cannot perturb a (bench, total, seed) triple.
        let first = WorkloadTrace::synthesize(Benchmark::Vips, Seconds::new(15.0), 9);
        let _noise = WorkloadTrace::synthesize(Benchmark::Dedup, Seconds::new(40.0), 1);
        let second = WorkloadTrace::synthesize(Benchmark::Vips, Seconds::new(15.0), 9);
        assert_eq!(first, second);
    }

    #[test]
    fn seeds_differentiate_but_durations_agree_across_benchmarks() {
        // Same seed, different benchmark ⇒ different phase structure but the
        // same total duration contract.
        let a = WorkloadTrace::synthesize(Benchmark::Blackscholes, Seconds::new(25.0), 6);
        let b = WorkloadTrace::synthesize(Benchmark::Streamcluster, Seconds::new(25.0), 6);
        assert_ne!(a.phases, b.phases);
        assert!((a.duration().value() - 25.0).abs() < 1e-9);
        assert!((b.duration().value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn power_scale_lookup() {
        let t = WorkloadTrace::synthesize(Benchmark::Ferret, Seconds::new(10.0), 5);
        let first = t.phases[0];
        assert_eq!(t.power_scale_at(Seconds::new(0.0)), first.power_scale);
        // Past the end: last phase's scale.
        let last = *t.phases.last().unwrap();
        assert_eq!(t.power_scale_at(Seconds::new(1e6)), last.power_scale);
    }
}
