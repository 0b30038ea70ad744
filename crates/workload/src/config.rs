//! The `(Nc, Nt, f)` configuration space of Algorithm 1.

use core::fmt;
use tps_power::CoreFrequency;

/// A workload configuration: number of cores, hardware threads per core and
/// core frequency.
///
/// The paper writes configurations as `(Nc, Nt, f)` where `Nt` is the *total*
/// thread count; internally we store threads **per core** (1 or 2, matching
/// Algorithm 1's `Nt = {1, 2}`), and [`fmt::Display`] prints the paper form.
///
/// ```
/// use tps_workload::WorkloadConfig;
/// use tps_power::CoreFrequency;
///
/// let cfg = WorkloadConfig::new(8, 2, CoreFrequency::F3_2)?;
/// assert_eq!(cfg.total_threads(), 16);
/// assert_eq!(cfg.to_string(), "(8,16,3.2GHz)");
/// # Ok::<(), tps_workload::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    n_cores: u8,
    threads_per_core: u8,
    freq: CoreFrequency,
}

/// Error constructing a [`WorkloadConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Core count outside `1..=8`.
    CoreCount(u8),
    /// Threads per core outside `1..=2`.
    ThreadsPerCore(u8),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CoreCount(n) => write!(f, "core count {n} outside 1..=8"),
            ConfigError::ThreadsPerCore(n) => write!(f, "threads per core {n} outside 1..=2"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl WorkloadConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n_cores` is outside `1..=8` or
    /// `threads_per_core` outside `1..=2`.
    pub fn new(
        n_cores: u8,
        threads_per_core: u8,
        freq: CoreFrequency,
    ) -> Result<Self, ConfigError> {
        if !(1..=8).contains(&n_cores) {
            return Err(ConfigError::CoreCount(n_cores));
        }
        if !(1..=2).contains(&threads_per_core) {
            return Err(ConfigError::ThreadsPerCore(threads_per_core));
        }
        Ok(Self {
            n_cores,
            threads_per_core,
            freq,
        })
    }

    /// The paper's reference configuration: native 8 cores, 16 threads,
    /// maximum frequency (Sec. IV-B).
    pub fn baseline() -> Self {
        Self {
            n_cores: 8,
            threads_per_core: 2,
            freq: CoreFrequency::MAX,
        }
    }

    /// Number of active cores `Nc`.
    pub fn n_cores(&self) -> u8 {
        self.n_cores
    }

    /// Hardware threads per core (1 or 2).
    pub fn threads_per_core(&self) -> u8 {
        self.threads_per_core
    }

    /// Total software threads `Nt = Nc × threads/core`.
    pub fn total_threads(&self) -> u8 {
        self.n_cores * self.threads_per_core
    }

    /// Core frequency `f`.
    pub fn frequency(&self) -> CoreFrequency {
        self.freq
    }

    /// Returns this configuration with a different frequency (used by the
    /// runtime controller when throttling).
    pub fn with_frequency(self, freq: CoreFrequency) -> Self {
        Self { freq, ..self }
    }

    /// Enumerates the full configuration space of Algorithm 1:
    /// `Nc ∈ 1..=8 × Nt ∈ {1,2} × f ∈ {2.6, 2.9, 3.2}` — 48 configurations.
    pub(crate) fn enumerate_all() -> Vec<WorkloadConfig> {
        let mut v = Vec::with_capacity(48);
        for n_cores in 1..=8u8 {
            for tpc in 1..=2u8 {
                for freq in CoreFrequency::ALL {
                    v.push(WorkloadConfig {
                        n_cores,
                        threads_per_core: tpc,
                        freq,
                    });
                }
            }
        }
        v
    }

    /// The five configurations shown on the x-axis of the paper's Fig. 3,
    /// all at `f_max`: (2,4) (4,4) (4,8) (8,8) (8,16).
    pub fn fig3_configs() -> [WorkloadConfig; 5] {
        let c = |nc, tpc| WorkloadConfig {
            n_cores: nc,
            threads_per_core: tpc,
            freq: CoreFrequency::MAX,
        };
        [c(2, 2), c(4, 1), c(4, 2), c(8, 1), c(8, 2)]
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

impl fmt::Display for WorkloadConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{}GHz)",
            self.n_cores,
            self.total_threads(),
            self.freq.ghz().value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(WorkloadConfig::new(0, 1, CoreFrequency::F2_6).is_err());
        assert!(WorkloadConfig::new(9, 1, CoreFrequency::F2_6).is_err());
        assert!(WorkloadConfig::new(4, 3, CoreFrequency::F2_6).is_err());
        assert!(WorkloadConfig::new(4, 2, CoreFrequency::F2_6).is_ok());
    }

    #[test]
    fn baseline_is_native_config() {
        let b = WorkloadConfig::baseline();
        assert_eq!(b.n_cores(), 8);
        assert_eq!(b.total_threads(), 16);
        assert_eq!(b.frequency(), CoreFrequency::F3_2);
    }

    #[test]
    fn space_has_48_configs() {
        let all = WorkloadConfig::enumerate_all();
        assert_eq!(all.len(), 48);
        // All distinct.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 48);
    }

    #[test]
    fn fig3_axis_matches_paper() {
        let labels: Vec<String> = WorkloadConfig::fig3_configs()
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(
            labels,
            [
                "(2,4,3.2GHz)",
                "(4,4,3.2GHz)",
                "(4,8,3.2GHz)",
                "(8,8,3.2GHz)",
                "(8,16,3.2GHz)"
            ]
        );
    }

    #[test]
    fn with_frequency_preserves_shape() {
        let c = WorkloadConfig::new(4, 2, CoreFrequency::F3_2).unwrap();
        let lowered = c.with_frequency(CoreFrequency::F2_6);
        assert_eq!(lowered.n_cores(), 4);
        assert_eq!(lowered.total_threads(), 8);
        assert_eq!(lowered.frequency(), CoreFrequency::F2_6);
    }

    #[test]
    fn error_messages() {
        assert!(ConfigError::CoreCount(9).to_string().contains("9"));
        assert!(ConfigError::ThreadsPerCore(3).to_string().contains("3"));
    }
}
