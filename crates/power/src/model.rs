//! Decomposed package power: uncore, idle cores, active cores.

use crate::cstate::CState;
use crate::frequency::{CoreFrequency, UncoreFrequency};
use tps_units::{GigaHertz, Watts};

/// Number of cores in the target package.
pub(crate) const N_CORES: usize = 8;

/// The paper's Table I: package power with all 8 cores in the given C-state,
/// at core frequency 2.6 / 2.9 / 3.2 GHz.
const TABLE_I: [(CState, [f64; 3]); 3] = [
    (CState::Poll, [27.0, 32.0, 40.0]),
    (CState::C1, [14.0, 15.0, 17.0]),
    (CState::C1e, [9.0, 9.0, 9.0]),
];

fn freq_column(freq: CoreFrequency) -> usize {
    match freq {
        CoreFrequency::F2_6 => 0,
        CoreFrequency::F2_9 => 1,
        CoreFrequency::F3_2 => 2,
    }
}

/// Uncore power: LLC + memory controller + IO (Sec. IV-C2).
///
/// "a constant component … 9 W overhead in all operating points" plus a
/// component "proportional to the … uncore frequency" providing "an 8 W
/// variation from the minimum to maximum uncore frequency", plus the LLC
/// model "2 W in the worst case".
#[derive(Debug, Clone, PartialEq)]
pub struct UncorePowerModel {
    static_w: f64,
    prop_span_w: f64,
    llc_max_w: f64,
}

impl UncorePowerModel {
    /// The Xeon E5 v4 parameters measured in the paper.
    pub fn xeon_e5_v4() -> Self {
        Self {
            static_w: 9.0,
            prop_span_w: 8.0,
            llc_max_w: 2.0,
        }
    }

    /// Memory-controller + IO power at an uncore operating point
    /// (excluding the LLC contribution).
    pub fn mem_io_power(&self, freq: UncoreFrequency) -> Watts {
        Watts::new(self.static_w + self.prop_span_w * freq.range_fraction())
    }

    /// LLC power at a given activity level in `[0, 1]`
    /// (1.0 = the paper's 2 W worst case).
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn llc_power(&self, activity: f64) -> Watts {
        assert!(
            (0.0..=1.0).contains(&activity),
            "LLC activity {activity} outside [0, 1]"
        );
        Watts::new(self.llc_max_w * activity)
    }

    /// Total uncore power: memory controller + IO + LLC.
    pub(crate) fn total_power(&self, freq: UncoreFrequency, llc_activity: f64) -> Watts {
        self.mem_io_power(freq) + self.llc_power(llc_activity)
    }
}

impl Default for UncorePowerModel {
    fn default() -> Self {
        Self::xeon_e5_v4()
    }
}

/// Idle-power model reproducing the paper's Table I by construction.
///
/// The decomposition assumes that with the whole package idle, the uncore
/// clocks down with the core frequency (1.2/1.6/2.0 GHz at core
/// 2.6/2.9/3.2 GHz; pinned at 1.2 GHz for C1E and deeper); the per-core
/// share is then `(Table I − uncore) / 8`. Re-composing 8 cores + uncore
/// reproduces Table I exactly, which `table1_cstates` verifies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdlePowerModel {
    uncore: UncorePowerModel,
}

impl IdlePowerModel {
    /// The Xeon E5 v4 model.
    pub fn xeon_e5_v4() -> Self {
        Self {
            uncore: UncorePowerModel::xeon_e5_v4(),
        }
    }

    /// Uncore frequency assumed while the package idles in `cstate`.
    pub(crate) fn idle_uncore_frequency(
        &self,
        cstate: CState,
        freq: CoreFrequency,
    ) -> UncoreFrequency {
        match cstate {
            CState::Poll | CState::C1 => {
                let ghz = match freq {
                    CoreFrequency::F2_6 => 1.2,
                    CoreFrequency::F2_9 => 1.6,
                    CoreFrequency::F3_2 => 2.0,
                };
                UncoreFrequency::new(GigaHertz::new(ghz))
            }
            _ => UncoreFrequency::min(),
        }
    }

    /// Uncore power while the package idles in `cstate`.
    pub(crate) fn uncore_idle_power(&self, cstate: CState, freq: CoreFrequency) -> Watts {
        self.uncore
            .total_power(self.idle_uncore_frequency(cstate, freq), 0.0)
    }

    /// Per-core idle power in `cstate` at core frequency `freq`.
    ///
    /// POLL/C1/C1E derive from Table I; C3/C6 are extrapolated to zero core
    /// power (deep states matter through wake latency, not residual power).
    pub fn core_idle_power(&self, cstate: CState, freq: CoreFrequency) -> Watts {
        let table_pkg = TABLE_I
            .iter()
            .find(|(s, _)| *s == cstate)
            .map(|(_, row)| row[freq_column(freq)]);
        match table_pkg {
            Some(pkg) => {
                let uncore = self.uncore_idle_power(cstate, freq).value();
                Watts::new(((pkg - uncore) / N_CORES as f64).max(0.0))
            }
            None => Watts::ZERO,
        }
    }

    /// Package power with all 8 cores idle in `cstate`.
    ///
    /// For POLL/C1/C1E this equals the paper's Table I.
    pub fn package_idle_power(&self, cstate: CState, freq: CoreFrequency) -> Watts {
        self.core_idle_power(cstate, freq) * N_CORES as f64 + self.uncore_idle_power(cstate, freq)
    }

    /// The paper's Table I value, if the state is listed there.
    pub fn table_i(cstate: CState, freq: CoreFrequency) -> Option<Watts> {
        TABLE_I
            .iter()
            .find(|(s, _)| *s == cstate)
            .map(|(_, row)| Watts::new(row[freq_column(freq)]))
    }
}

/// Active-core power: POLL baseline plus workload dynamic power.
///
/// `P_active = P_idle,POLL(f) + P_dyn,fmax · dvfs_scale(f) · util · smt`,
/// where `P_dyn,fmax` is the benchmark's per-core dynamic power at `f_max`
/// (provided by `tps-workload`) and the SMT factor models the extra
/// switching activity of a second hardware thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveCorePower {
    idle: IdlePowerModel,
}

impl ActiveCorePower {
    /// SMT activity factor for two hardware threads per core.
    pub(crate) const SMT_FACTOR: f64 = 1.15;

    /// The Xeon E5 v4 model.
    pub fn xeon_e5_v4() -> Self {
        Self {
            idle: IdlePowerModel::xeon_e5_v4(),
        }
    }

    /// Power of one active core.
    ///
    /// * `dyn_fmax` — the benchmark's per-core dynamic power at `f_max`
    ///   with one thread,
    /// * `utilization` — busy fraction in `[0, 1]`,
    /// * `threads` — hardware threads on this core (1 or 2).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]` or `threads` not 1/2.
    pub fn power(
        &self,
        freq: CoreFrequency,
        dyn_fmax: Watts,
        utilization: f64,
        threads: u8,
    ) -> Watts {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} outside [0, 1]"
        );
        assert!(threads == 1 || threads == 2, "threads must be 1 or 2");
        let smt = if threads == 2 { Self::SMT_FACTOR } else { 1.0 };
        self.idle.core_idle_power(CState::Poll, freq)
            + dyn_fmax * freq.dvfs_scale() * utilization * smt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_idle_reproduces_table_i_exactly() {
        let m = IdlePowerModel::xeon_e5_v4();
        for (state, row) in TABLE_I {
            for (col, freq) in CoreFrequency::ALL.into_iter().enumerate() {
                let pkg = m.package_idle_power(state, freq);
                assert!(
                    (pkg.value() - row[col]).abs() < 1e-9,
                    "{state} @ {freq}: {pkg} != {} W",
                    row[col]
                );
            }
        }
    }

    #[test]
    fn deeper_states_use_less_power() {
        let m = IdlePowerModel::xeon_e5_v4();
        for freq in CoreFrequency::ALL {
            let poll = m.package_idle_power(CState::Poll, freq);
            let c1 = m.package_idle_power(CState::C1, freq);
            let c1e = m.package_idle_power(CState::C1e, freq);
            let c6 = m.package_idle_power(CState::C6, freq);
            assert!(poll > c1 && c1 > c1e && c1e >= c6);
        }
    }

    #[test]
    fn poll_core_power_is_significant() {
        // Sec. VII: "the static power of idle [POLL] cores is comparable to
        // the dynamic power consumption of active ones".
        let m = IdlePowerModel::xeon_e5_v4();
        let poll = m.core_idle_power(CState::Poll, CoreFrequency::F3_2);
        assert!(poll.value() > 3.0, "POLL core power {poll} too small");
        let c1 = m.core_idle_power(CState::C1, CoreFrequency::F3_2);
        assert!(c1.value() < 1.0, "C1 core power {c1} too large");
    }

    #[test]
    fn uncore_span_is_8w() {
        let u = UncorePowerModel::xeon_e5_v4();
        let span = u.mem_io_power(UncoreFrequency::max()) - u.mem_io_power(UncoreFrequency::min());
        assert_eq!(span, Watts::new(8.0));
        assert_eq!(u.mem_io_power(UncoreFrequency::min()), Watts::new(9.0));
        assert_eq!(u.llc_power(1.0), Watts::new(2.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn llc_activity_validated() {
        let _ = UncorePowerModel::xeon_e5_v4().llc_power(1.5);
    }

    #[test]
    fn active_power_scales_with_frequency_and_smt() {
        let a = ActiveCorePower::xeon_e5_v4();
        let dyn_fmax = Watts::new(4.0);
        let low = a.power(CoreFrequency::F2_6, dyn_fmax, 1.0, 1);
        let high = a.power(CoreFrequency::F3_2, dyn_fmax, 1.0, 1);
        let smt = a.power(CoreFrequency::F3_2, dyn_fmax, 1.0, 2);
        assert!(low < high && high < smt);
        // At f_max, 1 thread, full utilization: POLL idle + dyn.
        let expected = a.idle.core_idle_power(CState::Poll, CoreFrequency::F3_2) + dyn_fmax;
        assert!((high.value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn full_load_package_power_is_in_paper_range() {
        // 8 power-hungry cores at f_max + busy uncore ⇒ close to the paper's
        // 79.3 W maximum, and never above ~85 W.
        let a = ActiveCorePower::xeon_e5_v4();
        let u = UncorePowerModel::xeon_e5_v4();
        let per_core = a.power(CoreFrequency::F3_2, Watts::new(4.2), 1.0, 2);
        let pkg = per_core * 8.0 + u.total_power(UncoreFrequency::max(), 1.0);
        assert!(
            pkg.value() > 70.0 && pkg.value() < 90.0,
            "full-load package power {pkg} outside the expected band"
        );
    }
}
