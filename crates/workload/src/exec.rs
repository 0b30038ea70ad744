//! The analytic execution-time model behind the paper's Fig. 3.

use crate::config::WorkloadConfig;
use tps_power::{CoreFrequency, UncoreFrequency};
use tps_units::{GigaHertz, Watts};

/// Performance and power characteristics of one benchmark.
///
/// The execution-time model splits the work into a serial and a parallel
/// region (Amdahl), and each region into a CPU-bound share (scaling with
/// `1/f` and core count) and a memory-bound share (frequency-insensitive,
/// saturating at the memory-bandwidth parallelism `bw_saturation`):
///
/// ```text
/// T(Nc,Nt,f) = ser·u(1,f) + (1−ser)·u(S, f)
/// u(S, f)    = (1−mem)·(f_max/f)/S_cpu + mem/S_mem
/// S_cpu      = Nc · smt(Nt) / (1 + comm·(Nc−1))
/// S_mem      = min(S_cpu, bw_saturation)
/// ```
///
/// Times are normalized to the `(8,16,f_max)` baseline of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    serial: f64,
    mem: f64,
    smt_gain: f64,
    comm: f64,
    bw_saturation: f64,
    dyn_core_power_fmax: f64,
    llc_activity: f64,
}

impl BenchProfile {
    /// Builds a profile; used by [`Benchmark::profile`](crate::Benchmark::profile).
    ///
    /// # Panics
    ///
    /// Panics if any fraction leaves its physical range.
    pub(crate) fn new(
        serial: f64,
        mem: f64,
        smt_gain: f64,
        comm: f64,
        bw_saturation: f64,
        dyn_core_power_fmax: f64,
        llc_activity: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&serial), "serial fraction out of range");
        assert!((0.0..1.0).contains(&mem), "memory fraction out of range");
        assert!(smt_gain >= 1.0, "SMT gain must be >= 1");
        assert!(comm >= 0.0, "communication overhead must be >= 0");
        assert!(bw_saturation >= 1.0, "bandwidth saturation must be >= 1");
        assert!(dyn_core_power_fmax > 0.0, "dynamic power must be positive");
        assert!(
            (0.0..=1.0).contains(&llc_activity),
            "LLC activity out of range"
        );
        Self {
            serial,
            mem,
            smt_gain,
            comm,
            bw_saturation,
            dyn_core_power_fmax,
            llc_activity,
        }
    }

    /// Memory-bound share of the work (frequency-insensitive).
    pub(crate) fn mem_fraction(&self) -> f64 {
        self.mem
    }

    /// Per-core dynamic power at `f_max` with one thread.
    pub(crate) fn dyn_core_power_fmax(&self) -> Watts {
        Watts::new(self.dyn_core_power_fmax)
    }

    /// LLC activity in `[0,1]` (1.0 = the 2 W worst case of Sec. IV-C2).
    pub(crate) fn llc_activity(&self) -> f64 {
        self.llc_activity
    }

    /// Core busy fraction: memory stalls reduce switching activity.
    pub(crate) fn utilization(&self) -> f64 {
        1.0 - 0.25 * self.mem
    }

    /// The uncore operating point the workload drives: memory-bound
    /// workloads push the uncore towards its maximum frequency.
    pub(crate) fn uncore_frequency(&self) -> UncoreFrequency {
        let ghz = UncoreFrequency::MIN_GHZ
            + (UncoreFrequency::MAX_GHZ - UncoreFrequency::MIN_GHZ) * (0.4 + 0.6 * self.mem);
        UncoreFrequency::new(GigaHertz::new(ghz))
    }

    /// Parallel speedup of the CPU-bound share at a configuration.
    pub(crate) fn cpu_speedup(&self, cfg: WorkloadConfig) -> f64 {
        let nc = f64::from(cfg.n_cores());
        let smt = if cfg.threads_per_core() == 2 {
            self.smt_gain
        } else {
            1.0
        };
        nc * smt / (1.0 + self.comm * (nc - 1.0))
    }

    /// Execution time in baseline-work units (serial @ `f_max` = 1.0).
    pub(crate) fn execution_time_units(&self, cfg: WorkloadConfig) -> f64 {
        let fscale = CoreFrequency::MAX.ghz().value() / cfg.frequency().ghz().value();
        let s_cpu = self.cpu_speedup(cfg);
        let s_mem = s_cpu.min(self.bw_saturation);
        let region = |speedup_cpu: f64, speedup_mem: f64| {
            (1.0 - self.mem) * fscale / speedup_cpu + self.mem / speedup_mem
        };
        self.serial * region(1.0, 1.0) + (1.0 - self.serial) * region(s_cpu, s_mem)
    }

    /// Execution time normalized to the paper's `(8,16,f_max)` baseline.
    ///
    /// This is the quantity plotted in Fig. 3 (before dividing by the QoS
    /// limit) and compared against QoS constraints by Algorithm 1.
    pub fn normalized_time(&self, cfg: WorkloadConfig) -> f64 {
        self.execution_time_units(cfg) / self.execution_time_units(WorkloadConfig::baseline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use proptest::prelude::*;

    fn cfg(nc: u8, tpc: u8, f: CoreFrequency) -> WorkloadConfig {
        WorkloadConfig::new(nc, tpc, f).unwrap()
    }

    #[test]
    fn profiles_are_valid() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.serial > 0.0 && p.serial < 0.2);
            assert!(p.mem >= 0.0 && p.mem <= 0.7);
            assert!(p.smt_gain >= 1.0 && p.smt_gain <= 1.5);
        }
    }

    #[test]
    fn baseline_normalizes_to_one() {
        for b in Benchmark::ALL {
            let t = b.profile().normalized_time(WorkloadConfig::baseline());
            assert!((t - 1.0).abs() < 1e-12, "{b}: {t}");
        }
    }

    #[test]
    fn fewer_cores_is_slower() {
        for b in Benchmark::ALL {
            let p = b.profile();
            let t2 = p.normalized_time(cfg(2, 2, CoreFrequency::F3_2));
            let t4 = p.normalized_time(cfg(4, 2, CoreFrequency::F3_2));
            let t8 = p.normalized_time(cfg(8, 2, CoreFrequency::F3_2));
            assert!(t2 > t4 && t4 > t8, "{b}: {t2} {t4} {t8}");
        }
    }

    #[test]
    fn lower_frequency_is_slower() {
        for b in Benchmark::ALL {
            let p = b.profile();
            let slow = p.normalized_time(cfg(8, 2, CoreFrequency::F2_6));
            assert!(slow > 1.0, "{b}: {slow}");
        }
    }

    #[test]
    fn memory_bound_kernels_are_less_frequency_sensitive() {
        let canneal = Benchmark::Canneal.profile();
        let swaptions = Benchmark::Swaptions.profile();
        let slow_c = canneal.normalized_time(cfg(8, 2, CoreFrequency::F2_6));
        let slow_s = swaptions.normalized_time(cfg(8, 2, CoreFrequency::F2_6));
        assert!(
            slow_c < slow_s,
            "canneal {slow_c} should suffer less from DVFS than swaptions {slow_s}"
        );
    }

    #[test]
    fn fig3_spread_matches_paper_shape() {
        // At (2,4,fmax) the scalable kernels sit near/above the 2× QoS limit
        // while nothing exceeds ~2.1× of it (the plot's y-range is 0..2.1
        // after normalizing by the 2× limit, i.e. 0..4.2× baseline).
        for b in Benchmark::ALL {
            let t = b.profile().normalized_time(cfg(2, 2, CoreFrequency::F3_2));
            assert!(t > 1.2 && t < 4.2, "{b}: (2,4,fmax) time {t}");
        }
        // Scalable kernels violate 2× at (2,4) by a wide margin …
        let swap = Benchmark::Swaptions.profile();
        assert!(swap.normalized_time(cfg(2, 2, CoreFrequency::F3_2)) > 3.0);
        // … while bandwidth-saturated ones sit just above the limit.
        let sc = Benchmark::Streamcluster.profile();
        let t_sc = sc.normalized_time(cfg(2, 2, CoreFrequency::F3_2));
        assert!((2.0..2.6).contains(&t_sc), "streamcluster (2,4): {t_sc}");
        // At (4,8,fmax) everything meets 2× (the paper's Fig. 3 shape).
        for b in Benchmark::ALL {
            assert!(b.profile().normalized_time(cfg(4, 2, CoreFrequency::F3_2)) < 2.0);
        }
    }

    #[test]
    fn smt_helps_more_for_memory_bound_below_saturation() {
        // At 2 cores neither kernel saturates bandwidth yet, so the
        // latency-hiding SMT gain of the memory-bound kernel shows through.
        let sc = Benchmark::Streamcluster.profile();
        let fa = Benchmark::Fluidanimate.profile();
        let gain = |p: &BenchProfile| {
            p.normalized_time(cfg(2, 1, CoreFrequency::F3_2))
                / p.normalized_time(cfg(2, 2, CoreFrequency::F3_2))
        };
        assert!(gain(&sc) > gain(&fa));
    }

    proptest! {
        #[test]
        fn execution_time_is_positive_and_finite(
            nc in 1u8..=8, tpc in 1u8..=2, fi in 0usize..3,
            bi in 0usize..13,
        ) {
            let p = Benchmark::ALL[bi].profile();
            let c = cfg(nc, tpc, CoreFrequency::ALL[fi]);
            let t = p.normalized_time(c);
            prop_assert!(t.is_finite() && t > 0.0);
        }

        #[test]
        fn more_resources_never_hurt(
            nc in 1u8..8, tpc in 1u8..=2, fi in 0usize..3, bi in 0usize..13,
        ) {
            // Adding a core (same tpc, same f) never slows the model down.
            let p = Benchmark::ALL[bi].profile();
            let f = CoreFrequency::ALL[fi];
            let t_small = p.normalized_time(cfg(nc, tpc, f));
            let t_big = p.normalized_time(cfg(nc + 1, tpc, f));
            prop_assert!(t_big <= t_small + 1e-12);
        }
    }
}
