//! The runtime thermal controller of Fig. 4 / Sec. VII (last paragraph).

use tps_thermosyphon::FlowValve;
use tps_units::{Celsius, KgPerHour, TempDelta};
use tps_workload::{Benchmark, QosClass, WorkloadConfig};

/// What the controller decided in one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Everything nominal.
    NoAction,
    /// Frequency lowered to the contained level (QoS still holds).
    LoweredFrequency(WorkloadConfig),
    /// Valve opened; the new water flow.
    IncreasedFlow(KgPerHour),
    /// Valve eased back after sustained headroom; the new water flow.
    RelaxedFlow(KgPerHour),
    /// All actuators exhausted — the job must be migrated or throttled
    /// beyond QoS.
    Emergency,
}

/// Per-thermosyphon runtime controller.
///
/// The paper: "during runtime, we increase water flow rate only if a
/// thermal emergency (T_CASE ≥ T_CASE_MAX) occurs and lowering the
/// frequency violates the QoS requirement" — i.e. DVFS is the first
/// responder, the valve the second, and both act only on emergencies.
/// A hysteresis band eases the valve back once the package runs cold.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeController {
    t_case_max: Celsius,
    hysteresis: TempDelta,
    valve: FlowValve,
}

impl RuntimeController {
    /// A controller with the paper's 85 °C limit, an 8 K relax band and the
    /// prototype valve.
    pub(crate) fn paper() -> Self {
        Self::new(crate::T_CASE_MAX, TempDelta::new(8.0), FlowValve::paper())
    }

    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the hysteresis band is negative.
    pub fn new(t_case_max: Celsius, hysteresis: TempDelta, valve: FlowValve) -> Self {
        assert!(hysteresis.value() >= 0.0, "hysteresis must be non-negative");
        Self {
            t_case_max,
            hysteresis,
            valve,
        }
    }

    /// Current valve flow.
    pub fn flow(&self) -> KgPerHour {
        self.valve.flow()
    }

    /// `true` if `t_case` constitutes a thermal emergency.
    pub(crate) fn is_emergency(&self, t_case: Celsius) -> bool {
        t_case >= self.t_case_max
    }

    /// One control epoch.
    ///
    /// On an emergency: lower the core frequency if the resulting
    /// configuration still meets QoS; otherwise open the valve; if the
    /// valve is already fully open, report [`ControlAction::Emergency`].
    /// Far below the limit, ease the valve back one step.
    pub fn evaluate(
        &mut self,
        t_case: Celsius,
        bench: Benchmark,
        qos: QosClass,
        config: WorkloadConfig,
    ) -> ControlAction {
        if self.is_emergency(t_case) {
            if let Some(lower) = config.frequency().lower() {
                let candidate = config.with_frequency(lower);
                let slowdown = bench.profile().normalized_time(candidate);
                if qos.is_met_by(slowdown) {
                    return ControlAction::LoweredFrequency(candidate);
                }
            }
            if self.valve.increase() {
                return ControlAction::IncreasedFlow(self.valve.flow());
            }
            return ControlAction::Emergency;
        }
        if t_case < self.t_case_max - self.hysteresis && self.valve.decrease() {
            return ControlAction::RelaxedFlow(self.valve.flow());
        }
        ControlAction::NoAction
    }
}

impl Default for RuntimeController {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_power::CoreFrequency;

    fn cfg(f: CoreFrequency) -> WorkloadConfig {
        WorkloadConfig::new(8, 2, f).unwrap()
    }

    #[test]
    fn nominal_temperature_no_action() {
        let mut c = RuntimeController::paper();
        let a = c.evaluate(
            Celsius::new(80.0),
            Benchmark::X264,
            QosClass::TwoX,
            cfg(CoreFrequency::F3_2),
        );
        assert_eq!(a, ControlAction::NoAction);
    }

    #[test]
    fn emergency_prefers_dvfs_when_qos_allows() {
        let mut c = RuntimeController::paper();
        let a = c.evaluate(
            Celsius::new(86.0),
            Benchmark::X264,
            QosClass::TwoX, // 2× slack: 2.9 GHz still fine
            cfg(CoreFrequency::F3_2),
        );
        match a {
            ControlAction::LoweredFrequency(new_cfg) => {
                assert_eq!(new_cfg.frequency(), CoreFrequency::F2_9);
            }
            other => panic!("expected a DVFS step, got {other:?}"),
        }
        // The valve did not move.
        assert_eq!(c.flow(), KgPerHour::new(7.0));
    }

    #[test]
    fn emergency_opens_valve_when_qos_is_tight() {
        let mut c = RuntimeController::paper();
        // 1× QoS: any slowdown violates it, so DVFS is off the table.
        let a = c.evaluate(
            Celsius::new(86.0),
            Benchmark::X264,
            QosClass::OneX,
            cfg(CoreFrequency::F3_2),
        );
        assert_eq!(a, ControlAction::IncreasedFlow(KgPerHour::new(8.5)));
    }

    #[test]
    fn exhausted_actuators_escalate() {
        let mut c = RuntimeController::paper();
        // Drain the valve.
        for _ in 0..10 {
            let _ = c.evaluate(
                Celsius::new(90.0),
                Benchmark::X264,
                QosClass::OneX,
                cfg(CoreFrequency::F2_6), // already at the floor
            );
        }
        let a = c.evaluate(
            Celsius::new(90.0),
            Benchmark::X264,
            QosClass::OneX,
            cfg(CoreFrequency::F2_6),
        );
        assert_eq!(a, ControlAction::Emergency);
    }

    #[test]
    fn cold_package_relaxes_the_valve() {
        let mut c = RuntimeController::paper();
        // Open once.
        let _ = c.evaluate(
            Celsius::new(86.0),
            Benchmark::X264,
            QosClass::OneX,
            cfg(CoreFrequency::F3_2),
        );
        assert_eq!(c.flow(), KgPerHour::new(8.5));
        // Deep below the band: relax.
        let a = c.evaluate(
            Celsius::new(60.0),
            Benchmark::X264,
            QosClass::OneX,
            cfg(CoreFrequency::F3_2),
        );
        assert_eq!(a, ControlAction::RelaxedFlow(KgPerHour::new(7.0)));
        // At the floor it stays put.
        let a = c.evaluate(
            Celsius::new(60.0),
            Benchmark::X264,
            QosClass::OneX,
            cfg(CoreFrequency::F3_2),
        );
        assert_eq!(a, ControlAction::NoAction);
    }
}
