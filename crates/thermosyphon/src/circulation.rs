//! Natural-circulation loop: gravity head vs. friction losses.

use crate::design::{ThermosyphonDesign, PIPE_DIAMETER_M, RISER_HEIGHT_M};
use crate::filling;
use core::fmt;
use tps_fluids::correlations::{homogeneous_void_fraction, lockhart_martinelli_multiplier};
use tps_units::{Celsius, Fraction, KgPerSecond, Watts};

/// Standard gravity, m/s².
const G: f64 = 9.806_65;

/// Lumped local-loss coefficient of the loop (bends, headers, valve).
const K_LOCAL: f64 = 90.0;

/// Error solving the circulation balance.
#[derive(Debug, Clone, PartialEq)]
pub enum CirculationError {
    /// Gravity head cannot overcome losses at any flow (e.g. nearly empty
    /// loop at negligible heat load).
    InsufficientHead,
}

impl fmt::Display for CirculationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CirculationError::InsufficientHead => {
                write!(f, "gravity head cannot sustain circulation at this load")
            }
        }
    }
}

impl std::error::Error for CirculationError {}

/// Darcy friction factor: laminar `64/Re` below 2300, Blasius above.
fn friction_factor(re: f64) -> f64 {
    if re < 2300.0 {
        64.0 / re.max(1.0)
    } else {
        0.316 * re.powf(-0.25)
    }
}

/// Exit quality for a candidate mass flow (clamped to 0.95).
fn exit_quality(q: Watts, m_dot: f64, h_fg: f64) -> Fraction {
    Fraction::saturating((q.value() / (m_dot * h_fg)).min(0.95))
}

/// Driving head minus losses (Pa) for a candidate flow.
fn residual(design: &ThermosyphonDesign, t_sat: Celsius, q: Watts, m_dot: f64) -> f64 {
    let r = design.refrigerant();
    let rho_l = r.liquid_density(t_sat);
    let rho_v = r.vapor_density(t_sat);
    let mu_l = r.liquid_viscosity(t_sat);
    let mu_v = r.vapor_viscosity(t_sat);
    let h_fg = r.latent_heat(t_sat).value();

    let x_exit = exit_quality(q, m_dot, h_fg);
    let alpha = homogeneous_void_fraction(x_exit, rho_l, rho_v);
    let rho_riser = alpha.value() * rho_v.value() + (1.0 - alpha.value()) * rho_l.value();
    let driving = G
        * RISER_HEIGHT_M
        * (rho_l.value() - rho_riser)
        * filling::head_factor(design.filling_ratio());

    // Evaporator micro-channels: liquid-only laminar gradient times the
    // Lockhart–Martinelli multiplier at the mid-channel quality.
    let g_ch = m_dot / (design.n_channels() as f64 * design.channel_area_m2());
    let dh = design.hydraulic_diameter_m();
    let re_ch = g_ch * dh / mu_l.value();
    let dp_l = friction_factor(re_ch) * (design.channel_length_m() / dh) * g_ch * g_ch
        / (2.0 * rho_l.value());
    let x_mid = Fraction::saturating(x_exit.value() / 2.0);
    let phi2 = lockhart_martinelli_multiplier(x_mid, rho_l, rho_v, mu_l, mu_v);
    let dp_channels = dp_l * phi2;

    // Riser: liquid-only gradient times the multiplier at exit quality.
    let a_pipe = core::f64::consts::FRAC_PI_4 * PIPE_DIAMETER_M.powi(2);
    let g_riser = m_dot / a_pipe;
    let re_riser = g_riser * PIPE_DIAMETER_M / mu_l.value();
    let dp_riser_l =
        friction_factor(re_riser) * (RISER_HEIGHT_M / PIPE_DIAMETER_M) * g_riser * g_riser
            / (2.0 * rho_l.value());
    let dp_riser = dp_riser_l * lockhart_martinelli_multiplier(x_exit, rho_l, rho_v, mu_l, mu_v);

    // Local losses (headers, bends, charge valve).
    let dp_local = K_LOCAL * g_riser * g_riser / (2.0 * rho_l.value());

    driving - (dp_channels + dp_riser + dp_local)
}

/// Solves the natural-circulation refrigerant mass flow for a design at a
/// saturation temperature and heat load, by bisection on the head/loss
/// balance.
///
/// The residual is monotonically decreasing in `ṁ`: more flow means lower
/// exit quality (denser riser column, less driving head) and more friction.
///
/// # Errors
///
/// Returns [`CirculationError::InsufficientHead`] if even the minimum flow
/// cannot be sustained.
///
/// # Panics
///
/// Panics if `q` is negative.
pub(crate) fn circulation_flow(
    design: &ThermosyphonDesign,
    t_sat: Celsius,
    q: Watts,
) -> Result<KgPerSecond, CirculationError> {
    assert!(q.value() >= 0.0, "heat load must be non-negative");
    // The residual is not globally monotone (the two-phase friction
    // multiplier spikes near the exit-quality clamp), so natural-circulation
    // loops can expose several balance points. Scan log-spaced flows and
    // bracket the *last* +→− crossing: the high-flow branch, where
    // d(residual)/dṁ < 0, is the hydrodynamically stable one.
    const M_MIN: f64 = 2e-6;
    const M_MAX: f64 = 0.05;
    const N_SCAN: usize = 120;
    let ratio = (M_MAX / M_MIN).powf(1.0 / (N_SCAN - 1) as f64);
    let mut bracket = None;
    let mut m_prev = M_MIN;
    let mut r_prev = residual(design, t_sat, q, m_prev);
    for i in 1..N_SCAN {
        let m = M_MIN * ratio.powi(i as i32);
        let r = residual(design, t_sat, q, m);
        if r_prev > 0.0 && r <= 0.0 {
            bracket = Some((m_prev, m));
        }
        m_prev = m;
        r_prev = r;
    }
    if r_prev > 0.0 {
        // Still positive at the cap: clamp (never happens for realistic
        // CPU loads, but keeps the function total).
        return Ok(KgPerSecond::new(M_MAX));
    }
    let (mut lo, mut hi) = bracket.ok_or(CirculationError::InsufficientHead)?;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if residual(design, t_sat, q, mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(KgPerSecond::new(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::{xeon_e5_v4, PackageGeometry};

    fn pkg() -> PackageGeometry {
        PackageGeometry::xeon(&xeon_e5_v4())
    }

    fn design() -> ThermosyphonDesign {
        ThermosyphonDesign::paper_design(&pkg())
    }

    /// The loop's exit vapour quality at a given flow and load.
    fn loop_exit_quality(
        design: &ThermosyphonDesign,
        t_sat: Celsius,
        q: Watts,
        m_dot: KgPerSecond,
    ) -> Fraction {
        let h_fg = design.refrigerant().latent_heat(t_sat).value();
        exit_quality(q, m_dot.value(), h_fg)
    }

    #[test]
    fn nominal_load_circulates_with_sane_exit_quality() {
        let d = design();
        let t = Celsius::new(41.0);
        let q = Watts::new(75.0);
        let m = circulation_flow(&d, t, q).unwrap();
        // Milligram-per-second-scale loop flow…
        assert!(
            m.value() > 2e-4 && m.value() < 2e-2,
            "flow {m} outside the plausible micro-loop band"
        );
        // …and a boiling (not superheating, not barely-evaporating) loop.
        let x = loop_exit_quality(&d, t, q, m);
        assert!(
            (0.03..=0.7).contains(&x.value()),
            "exit quality {x} out of band"
        );
    }

    #[test]
    fn flow_rises_with_load_then_friction_limits_it() {
        // Classic loop-thermosyphon characteristic: more vapour first means
        // more driving head (flow rises), but at high loads the two-phase
        // friction multiplier wins and the flow rolls off — while the loop
        // must still evaporate the full load below dryout quality.
        let d = design();
        let t = Celsius::new(40.0);
        let m10 = circulation_flow(&d, t, Watts::new(10.0)).unwrap();
        let m30 = circulation_flow(&d, t, Watts::new(30.0)).unwrap();
        let m79 = circulation_flow(&d, t, Watts::new(79.0)).unwrap();
        assert!(m30 > m10, "rising branch: {m30} vs {m10}");
        assert!(m79 < m30, "friction-limited branch: {m79} vs {m30}");
        let x = loop_exit_quality(&d, t, Watts::new(79.0), m79);
        assert!(x.value() < 0.55, "loop must not dry out at full load: {x}");
    }

    #[test]
    fn underfilled_loop_circulates_less() {
        let d = design();
        let starved = ThermosyphonDesign::builder(&pkg())
            .filling_ratio(Fraction::new(0.15).unwrap())
            .build();
        let t = Celsius::new(40.0);
        let q = Watts::new(70.0);
        let m_ok = circulation_flow(&d, t, q).unwrap();
        let m_starved = circulation_flow(&starved, t, q).unwrap();
        assert!(m_starved < m_ok);
    }

    #[test]
    fn solution_sits_on_the_stable_branch() {
        // At the returned flow the residual crosses from + to −, i.e. the
        // hydrodynamically stable high-flow balance point.
        let d = design();
        let t = Celsius::new(41.0);
        let q = Watts::new(75.0);
        let m = circulation_flow(&d, t, q).unwrap().value();
        assert!(residual(&d, t, q, m * 0.95) > 0.0);
        assert!(residual(&d, t, q, m * 1.05) < 0.0);
    }

    #[test]
    fn zero_load_fails_to_circulate() {
        // No vapour ⇒ no density difference ⇒ no driving head.
        let err = circulation_flow(&design(), Celsius::new(35.0), Watts::ZERO).unwrap_err();
        assert_eq!(err, CirculationError::InsufficientHead);
        assert!(err.to_string().contains("gravity head"));
    }
}
