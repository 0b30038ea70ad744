//! Heat-transfer and pressure-drop correlations for the evaporator and
//! condenser models.
//!
//! All correlations are standard textbook forms; each documents its source
//! and validity envelope. The flow-boiling model is deliberately simple —
//! Cooper pool boiling with a quality-dependent enhancement/dryout factor —
//! because what the paper's mapping exploits is its *shape*: boiling improves
//! with vapour quality up to a critical quality and then collapses
//! (dryout), which makes the channel outlet run hotter than the inlet and
//! penalizes co-linear hot spots that share channels.

use tps_units::{Density, DynamicViscosity, Fraction, HeatFlux, HeatTransferCoeff};

/// The flux-independent factor of Cooper's pool-boiling correlation (1984),
/// `h = 55 · p_r^(0.12−0.2·log10 Rp) · (−log10 p_r)^(−0.55) · M^(−0.5) · q″^0.67`
/// with surface roughness `Rp` in µm and molar mass `M` in kg/kmol, for
/// callers that evaluate many fluxes at one pressure.
///
/// Valid for `0.001 < p_r < 0.9` and fluxes up to several hundred kW/m² —
/// comfortably covering the evaporator's ~10–200 kW/m² envelope.
///
/// # Panics
///
/// Panics if `p_reduced` is outside `(0, 1)` or inputs are non-positive.
pub fn cooper_prefactor(p_reduced: f64, molar_mass: f64, roughness_um: f64) -> f64 {
    assert!(
        p_reduced > 0.0 && p_reduced < 1.0,
        "reduced pressure {p_reduced} outside (0, 1)"
    );
    assert!(molar_mass > 0.0 && roughness_um > 0.0);
    let exp_pr = 0.12 - 0.2 * roughness_um.log10();
    55.0 * p_reduced.powf(exp_pr) * (-p_reduced.log10()).powf(-0.55) * molar_mass.powf(-0.5)
}

/// Cooper's correlation from its [`cooper_prefactor`]:
/// `prefactor · q″^0.67`, with the flux floored at 1 W/m² so that zero flux
/// does not give `h = 0`. Multiplying in this order rounds exactly like the
/// correlation's single left-to-right product.
pub fn cooper_with_prefactor(prefactor: f64, q: HeatFlux) -> HeatTransferCoeff {
    HeatTransferCoeff::new(prefactor * q.value().max(1.0).powf(0.67))
}

/// Flow-boiling enhancement/suppression factor `S(x)` applied to the Cooper
/// pool-boiling coefficient in micro-channels.
///
/// Convective contribution grows with vapour quality
/// (`1 + 1.8·x^0.8`, after Kandlikar's convective term) until the local
/// quality approaches the dryout threshold `x_crit`, past which the wetted
/// fraction — and with it the coefficient — collapses exponentially towards
/// a vapour-convection floor of 5 %.
pub fn flow_boiling_factor(x: Fraction, x_crit: Fraction) -> f64 {
    let x = x.value();
    let enhancement = 1.0 + 1.8 * x.powf(0.8);
    let dry = if x <= x_crit.value() {
        1.0
    } else {
        (-12.0 * (x - x_crit.value())).exp()
    };
    (enhancement * dry).max(0.05)
}

/// Lockhart–Martinelli two-phase frictional multiplier `φ_l²` on the
/// liquid-only pressure gradient, with the laminar–laminar Chisholm
/// parameter `C = 5`.
///
/// Returns 1.0 at zero quality (pure liquid).
pub fn lockhart_martinelli_multiplier(
    x: Fraction,
    rho_l: Density,
    rho_v: Density,
    mu_l: DynamicViscosity,
    mu_v: DynamicViscosity,
) -> f64 {
    let x = x.value();
    if x <= 0.0 {
        return 1.0;
    }
    if x >= 1.0 {
        // Vapour-only limit: express the vapour gradient in liquid terms.
        return (rho_l.value() / rho_v.value()) * (mu_v.value() / mu_l.value());
    }
    // Martinelli parameter for laminar-laminar flow.
    let xtt = ((1.0 - x) / x).powf(0.9)
        * (rho_v.value() / rho_l.value()).powf(0.5)
        * (mu_l.value() / mu_v.value()).powf(0.1);
    1.0 + 5.0 / xtt + 1.0 / (xtt * xtt)
}

/// Homogeneous void fraction `α = 1 / (1 + ((1−x)/x)·(ρ_v/ρ_l))`.
///
/// Returns 0 at `x = 0` and 1 at `x = 1`.
pub fn homogeneous_void_fraction(x: Fraction, rho_l: Density, rho_v: Density) -> Fraction {
    let x = x.value();
    if x <= 0.0 {
        return Fraction::ZERO;
    }
    if x >= 1.0 {
        return Fraction::ONE;
    }
    let alpha = 1.0 / (1.0 + ((1.0 - x) / x) * (rho_v.value() / rho_l.value()));
    Fraction::saturating(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refrigerant::Refrigerant;
    use proptest::prelude::*;
    use tps_units::Celsius;

    /// Cooper's pool-boiling correlation through the shipped split form.
    fn cooper_pool_boiling(
        p_reduced: f64,
        molar_mass: f64,
        q: HeatFlux,
        roughness_um: f64,
    ) -> HeatTransferCoeff {
        cooper_with_prefactor(cooper_prefactor(p_reduced, molar_mass, roughness_um), q)
    }

    #[test]
    fn cooper_magnitude_for_r236fa() {
        // At p_r ≈ 0.12, M = 152, q″ = 68.6 kW/m²: h ≈ 6.3 kW/m²K
        // (hand-computed from the correlation).
        let r = Refrigerant::R236fa;
        let t = Celsius::new(36.0);
        let h = cooper_pool_boiling(
            r.reduced_pressure(t),
            r.molar_mass(),
            HeatFlux::new(68_600.0),
            1.0,
        );
        assert!((h.value() - 6300.0).abs() < 700.0, "h = {h}");
    }

    #[test]
    fn cooper_increases_with_flux_and_pressure() {
        let h1 = cooper_pool_boiling(0.1, 152.0, HeatFlux::new(5e4), 1.0);
        let h2 = cooper_pool_boiling(0.1, 152.0, HeatFlux::new(1e5), 1.0);
        let h3 = cooper_pool_boiling(0.2, 152.0, HeatFlux::new(5e4), 1.0);
        assert!(h2 > h1);
        assert!(h3 > h1);
    }

    /// Cooper's correlation as one left-to-right product: the oracle the
    /// split form must match bit for bit.
    fn cooper_single_expression(
        p_reduced: f64,
        molar_mass: f64,
        q: HeatFlux,
        roughness_um: f64,
    ) -> f64 {
        let q = q.value().max(1.0);
        let exp_pr = 0.12 - 0.2 * roughness_um.log10();
        55.0 * p_reduced.powf(exp_pr)
            * (-p_reduced.log10()).powf(-0.55)
            * molar_mass.powf(-0.5)
            * q.powf(0.67)
    }

    #[test]
    fn flow_boiling_rises_then_collapses() {
        let xc = Fraction::new(0.45).unwrap();
        let s0 = flow_boiling_factor(Fraction::ZERO, xc);
        let s_mid = flow_boiling_factor(Fraction::new(0.4).unwrap(), xc);
        let s_dry = flow_boiling_factor(Fraction::new(0.8).unwrap(), xc);
        assert!((s0 - 1.0).abs() < 1e-12);
        assert!(s_mid > 1.5, "mid-quality enhancement {s_mid}");
        assert!(s_dry < 0.3, "post-dryout factor {s_dry}");
    }

    #[test]
    fn dryout_threshold_matters() {
        // Lower x_crit ⇒ earlier collapse (the filling-ratio lever).
        let x = Fraction::new(0.5).unwrap();
        let low = flow_boiling_factor(x, Fraction::new(0.3).unwrap());
        let high = flow_boiling_factor(x, Fraction::new(0.6).unwrap());
        assert!(low < high);
    }

    #[test]
    fn void_fraction_limits() {
        let r = Refrigerant::R236fa;
        let t = Celsius::new(30.0);
        let (rl, rv) = (r.liquid_density(t), r.vapor_density(t));
        assert_eq!(
            homogeneous_void_fraction(Fraction::ZERO, rl, rv),
            Fraction::ZERO
        );
        assert_eq!(
            homogeneous_void_fraction(Fraction::ONE, rl, rv),
            Fraction::ONE
        );
        // Small quality already yields large void (density ratio ~65).
        let alpha = homogeneous_void_fraction(Fraction::new(0.1).unwrap(), rl, rv);
        assert!(alpha.value() > 0.8, "α = {alpha}");
    }

    proptest! {
        #[test]
        fn cooper_split_is_bit_identical(
            p_r in 0.001f64..0.9,
            molar in 2.0f64..400.0,
            roughness in 0.01f64..20.0,
            q in 1.0f64..1e6,
            q_floored in -1e3f64..=1.0,
        ) {
            for q in [q, q_floored] {
                let split = cooper_pool_boiling(p_r, molar, HeatFlux::new(q), roughness);
                let single = cooper_single_expression(p_r, molar, HeatFlux::new(q), roughness);
                prop_assert_eq!(split.value().to_bits(), single.to_bits());
            }
        }

        #[test]
        fn void_fraction_monotonic(x1 in 0.0f64..0.99, dx in 0.001f64..0.01) {
            let r = Refrigerant::R236fa;
            let t = Celsius::new(30.0);
            let (rl, rv) = (r.liquid_density(t), r.vapor_density(t));
            let a1 = homogeneous_void_fraction(Fraction::new(x1).unwrap(), rl, rv);
            let a2 = homogeneous_void_fraction(Fraction::new((x1 + dx).min(1.0)).unwrap(), rl, rv);
            prop_assert!(a2 >= a1);
        }

        #[test]
        fn lm_multiplier_at_least_one_in_two_phase(x in 0.0f64..0.9) {
            let r = Refrigerant::R236fa;
            let t = Celsius::new(30.0);
            let phi = lockhart_martinelli_multiplier(
                Fraction::new(x).unwrap(),
                r.liquid_density(t),
                r.vapor_density(t),
                r.liquid_viscosity(t),
                r.vapor_viscosity(t),
            );
            prop_assert!(phi >= 1.0 - 1e-12);
        }

        #[test]
        fn flow_boiling_factor_bounded(x in 0.0f64..=1.0, xc in 0.1f64..0.9) {
            let s = flow_boiling_factor(
                Fraction::new(x).unwrap(),
                Fraction::new(xc).unwrap(),
            );
            prop_assert!((0.05..=3.0).contains(&s));
        }
    }
}
