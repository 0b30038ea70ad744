//! The PARSEC 3.0 benchmark suite members used in the paper's Fig. 3.

use crate::exec::BenchProfile;
use core::fmt;
use core::str::FromStr;

/// A PARSEC 3.0 benchmark (all 13 of the paper's Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are benchmark names, not API surface
pub enum Benchmark {
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Facesim,
    Ferret,
    Fluidanimate,
    Freqmine,
    Raytrace,
    Streamcluster,
    Swaptions,
    Vips,
    X264,
}

impl Benchmark {
    /// All benchmarks, in alphabetical order.
    pub const ALL: [Benchmark; 13] = [
        Benchmark::Blackscholes,
        Benchmark::Bodytrack,
        Benchmark::Canneal,
        Benchmark::Dedup,
        Benchmark::Facesim,
        Benchmark::Ferret,
        Benchmark::Fluidanimate,
        Benchmark::Freqmine,
        Benchmark::Raytrace,
        Benchmark::Streamcluster,
        Benchmark::Swaptions,
        Benchmark::Vips,
        Benchmark::X264,
    ];

    /// The lowercase PARSEC name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Canneal => "canneal",
            Benchmark::Dedup => "dedup",
            Benchmark::Facesim => "facesim",
            Benchmark::Ferret => "ferret",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Freqmine => "freqmine",
            Benchmark::Raytrace => "raytrace",
            Benchmark::Streamcluster => "streamcluster",
            Benchmark::Swaptions => "swaptions",
            Benchmark::Vips => "vips",
            Benchmark::X264 => "x264",
        }
    }

    /// The benchmark's performance/power profile.
    ///
    /// Parameter values are our calibration (ARCHITECTURE.md §2): they reproduce
    /// the qualitative Fig. 3 spread — embarrassingly parallel kernels
    /// (`swaptions`, `blackscholes`) scale with cores and frequency, while
    /// memory-bound ones (`canneal`, `streamcluster`, `dedup`) saturate.
    pub fn profile(self) -> BenchProfile {
        // (serial, mem, smt_gain, comm, bw_sat, dyn W @fmax, llc activity)
        let p = |serial, mem, smt, comm, bw, dynp, llc| {
            BenchProfile::new(serial, mem, smt, comm, bw, dynp, llc)
        };
        match self {
            Benchmark::Blackscholes => p(0.02, 0.10, 1.25, 0.005, 6.0, 3.6, 0.3),
            Benchmark::Bodytrack => p(0.08, 0.20, 1.20, 0.015, 5.0, 3.8, 0.4),
            Benchmark::Canneal => p(0.05, 0.60, 1.35, 0.010, 5.5, 2.4, 0.9),
            Benchmark::Dedup => p(0.07, 0.50, 1.30, 0.020, 5.5, 2.8, 0.8),
            Benchmark::Facesim => p(0.05, 0.35, 1.15, 0.015, 5.0, 4.0, 0.5),
            Benchmark::Ferret => p(0.03, 0.25, 1.30, 0.010, 5.0, 3.9, 0.5),
            Benchmark::Fluidanimate => p(0.04, 0.30, 1.15, 0.012, 5.0, 4.2, 0.5),
            Benchmark::Freqmine => p(0.06, 0.25, 1.20, 0.012, 5.0, 3.9, 0.5),
            Benchmark::Raytrace => p(0.03, 0.15, 1.20, 0.008, 5.5, 3.7, 0.4),
            Benchmark::Streamcluster => p(0.03, 0.55, 1.40, 0.010, 5.5, 2.6, 0.9),
            Benchmark::Swaptions => p(0.01, 0.05, 1.30, 0.004, 6.5, 4.3, 0.2),
            Benchmark::Vips => p(0.04, 0.30, 1.20, 0.012, 5.0, 4.0, 0.5),
            Benchmark::X264 => p(0.06, 0.20, 1.25, 0.015, 5.0, 4.4, 0.4),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    name: String,
}

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown PARSEC benchmark `{}`", self.name)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == s.to_lowercase())
            .ok_or_else(|| ParseBenchmarkError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_benchmarks() {
        assert_eq!(Benchmark::ALL.len(), 13);
    }

    #[test]
    fn parse_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert_eq!("X264".parse::<Benchmark>().unwrap(), Benchmark::X264);
        assert!("doom".parse::<Benchmark>().is_err());
    }

    #[test]
    fn memory_bound_benchmarks_have_low_dynamic_power() {
        // Memory-bound workloads stall more and switch less.
        let canneal = Benchmark::Canneal.profile();
        let swaptions = Benchmark::Swaptions.profile();
        assert!(canneal.dyn_core_power_fmax() < swaptions.dyn_core_power_fmax());
        assert!(canneal.mem_fraction() > swaptions.mem_fraction());
    }
}
