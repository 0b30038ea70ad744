//! Filling-ratio effects (Sec. VI-B).
//!
//! Once the refrigerant is chosen, the charge (expressed as the liquid
//! filling ratio) is the remaining design-time lever. Its two failure modes
//! bracket an optimum near the paper's 55 % for R236fa:
//!
//! * **under-filled** — the liquid inventory cannot keep the channel walls
//!   wetted, so dryout strikes at lower vapour quality and the gravity head
//!   driving the circulation shrinks;
//! * **over-filled** — liquid backs up into the condenser and floods part of
//!   its area, raising the saturation temperature for the same heat load.

use tps_units::Fraction;

/// The paper's filling-ratio design point for R236fa.
pub(crate) const OPTIMAL_FILLING_RATIO: f64 = 0.55;

/// Critical (dryout) vapour quality as a function of the filling ratio.
///
/// At the optimal fill, dryout starts around x ≈ 0.50; an under-filled loop
/// loses wall wetting much earlier — the 3/2-power shape makes dryout the
/// dominant penalty of under-filling (down to x ≈ 0.05 when nearly empty).
pub(crate) fn dryout_quality(filling_ratio: Fraction) -> Fraction {
    let fr = filling_ratio.value();
    let x = 0.05 + 0.45 * (fr / OPTIMAL_FILLING_RATIO).min(1.0).powf(1.5);
    Fraction::saturating(x)
}

/// Gravity-head availability factor in `[0.3, 1]`.
///
/// The driving head scales with the liquid column in the downcomer; the
/// square-root shape reflects that even a modest inventory keeps a usable
/// column, and it saturates once the loop holds enough liquid.
pub(crate) fn head_factor(filling_ratio: Fraction) -> f64 {
    (filling_ratio.value() / OPTIMAL_FILLING_RATIO)
        .max(0.0)
        .sqrt()
        .clamp(0.3, 1.0)
}

/// Condenser-area availability factor in `(0, 1]`: over-filling floods the
/// condenser and removes effective area (linear penalty past 60 % fill,
/// down to 40 % of the area at 100 % fill).
pub(crate) fn condenser_flood_factor(filling_ratio: Fraction) -> f64 {
    let fr = filling_ratio.value();
    if fr <= 0.60 {
        1.0
    } else {
        (1.0 - 1.5 * (fr - 0.60)).max(0.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fr(v: f64) -> Fraction {
        Fraction::new(v).unwrap()
    }

    #[test]
    fn optimum_has_full_head_no_flooding() {
        assert_eq!(head_factor(fr(0.55)), 1.0);
        assert_eq!(condenser_flood_factor(fr(0.55)), 1.0);
        assert!((dryout_quality(fr(0.55)).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn underfill_causes_early_dryout_and_weak_head() {
        assert!(dryout_quality(fr(0.25)).value() < dryout_quality(fr(0.55)).value());
        assert!(head_factor(fr(0.25)) < 1.0);
        // But no condenser flooding.
        assert_eq!(condenser_flood_factor(fr(0.25)), 1.0);
    }

    #[test]
    fn overfill_floods_the_condenser() {
        assert!(condenser_flood_factor(fr(0.8)) < 1.0);
        assert!(condenser_flood_factor(fr(1.0)) >= 0.4);
        // Dryout quality does not improve past the optimum.
        assert_eq!(
            dryout_quality(fr(0.9)).value(),
            dryout_quality(fr(0.55)).value()
        );
    }

    proptest! {
        #[test]
        fn factors_stay_in_range(v in 0.0f64..=1.0) {
            let f = fr(v);
            prop_assert!((0.3..=1.0).contains(&head_factor(f)));
            prop_assert!((0.4..=1.0).contains(&condenser_flood_factor(f)));
            let x = dryout_quality(f).value();
            prop_assert!((0.05..=0.5).contains(&x));
        }

        #[test]
        fn dryout_monotonic_in_fill(v in 0.0f64..0.99) {
            prop_assert!(
                dryout_quality(fr(v)).value() <= dryout_quality(fr(v + 0.01)).value() + 1e-12
            );
        }
    }
}
