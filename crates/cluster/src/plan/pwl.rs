//! Piecewise-linear upper envelope of the chiller's inverse-COP curve.
//!
//! The planner's linearized objective prices rack cooling as
//! `heat × (1/COP)(supply) × horizon`. The real
//! [`Chiller`] curve has three regimes in the
//! supply temperature: a compressor branch (`lift = t_hot − t_cold`), a
//! minimum-lift branch (`lift` clamped), and free cooling (constant
//! `1/max_cop` once the supply reaches the rejection temperature). The
//! first two branches are convex and decreasing in the supply, so chords
//! between sampled knots sit *above* the true curve — the piecewise-linear
//! model is an upper envelope that agrees with the real curve exactly at
//! every knot. The free-cooling discontinuity is handled by branch
//! selection, not interpolation: supplies at or beyond the bisected
//! free-cooling threshold evaluate to the exact `1/max_cop`.
//!
//! Upper-envelope + knot-exactness gives the oracle tests their
//! tolerance: for any assignment, `true ≤ pwl ≤ true + max_error`, so the
//! solver's PWL optimum is within `max_error × Σheat × horizon` of the
//! true optimum (see `crates/cluster/tests/planner_oracle.rs`). No solver
//! reads the bound, so [`PwlCop::max_error`] measures it on demand.

use tps_cooling::Chiller;
use tps_units::Celsius;

/// Knots placed on the compressor branch and the minimum-lift branch.
const KNOTS_COMPRESSOR: usize = 16;
const KNOTS_MIN_LIFT: usize = 8;
/// Interior samples per segment when measuring the chord error.
const ERROR_SAMPLES: usize = 24;

/// A piecewise-linear inverse-COP model sampled from a [`Chiller`].
///
/// Valid for supply temperatures in the `[lo, hi]` range it was built
/// over; queries below `lo` clamp to the first knot (the planner builds
/// the range from the instance's coldest tolerable water, so the clamp
/// never fires in practice).
#[derive(Debug, Clone)]
pub struct PwlCop {
    /// `(supply °C, 1/COP)` knots, strictly ascending in supply, covering
    /// the compressed (non-free) region of the build range.
    knots: Vec<(f64, f64)>,
    /// Supplies at or above this temperature free-cool.
    free_from: f64,
    /// The exact free-cooling inverse COP (`1/max_cop`).
    free_inv: f64,
}

fn inv_cop(chiller: &Chiller, supply: f64) -> f64 {
    1.0 / chiller.cop(Celsius::new(supply))
}

fn kelvin(supply: f64) -> f64 {
    Celsius::new(supply).to_kelvin().value()
}

impl PwlCop {
    /// Samples `chiller` over the supply range `[lo, hi]` (°C).
    ///
    /// # Panics
    ///
    /// Panics unless `lo ≤ hi` and both are finite.
    pub fn build(chiller: &Chiller, lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "PWL supply range must be finite with lo <= hi, got [{lo}, {hi}]"
        );
        // A probe far above the rejection temperature is certainly in the
        // free-cooling regime; its COP is the exact cap.
        let probe = chiller.ambient().value().max(hi) + 64.0;
        let free_inv = inv_cop(chiller, probe);

        if inv_cop(chiller, lo) <= free_inv {
            // The whole range free-cools: one constant branch, no error.
            return Self {
                knots: Vec::new(),
                free_from: lo,
                free_inv,
            };
        }

        // Bisect the free-cooling threshold down to *adjacent floats*:
        // `a` stays compressed, `b` stays free. The curve jumps at the
        // threshold, so this is branch detection, not root finding — the
        // free branch sits exactly at the cap, making the predicate
        // exact, and the free region is upward-closed in the supply.
        // Converging to adjacent floats leaves no uncertainty sliver:
        // every representable free supply is ≥ `b`, every compressed one
        // is ≤ `a`, so `eval` lands on the true branch for every query.
        let mut a = lo;
        let mut b = probe;
        loop {
            let mid = 0.5 * (a + b);
            if mid <= a || mid >= b {
                break;
            }
            if inv_cop(chiller, mid) <= free_inv {
                b = mid;
            } else {
                a = mid;
            }
        }
        let free_from = b;
        // Knots cover the compressed region `[lo, a]` completely.
        let top = a;

        // Locate the minimum-lift kink: on the clamped branch
        // `1/COP × T_cold` is constant. Bisect the boundary against the
        // constant measured just below the free threshold.
        let clamp_key = inv_cop(chiller, top) * kelvin(top);
        let clamped =
            |s: f64| (inv_cop(chiller, s) * kelvin(s) - clamp_key).abs() <= 1e-9 * clamp_key;
        let kink = if clamped(lo) {
            lo
        } else {
            let (mut ka, mut kb) = (lo, top);
            while kb - ka > 1e-9 {
                let mid = 0.5 * (ka + kb);
                if clamped(mid) {
                    kb = mid;
                } else {
                    ka = mid;
                }
            }
            kb
        };

        let mut supplies = Vec::with_capacity(KNOTS_COMPRESSOR + KNOTS_MIN_LIFT + 2);
        linspace(lo, kink, KNOTS_COMPRESSOR, &mut supplies);
        linspace(kink, top, KNOTS_MIN_LIFT, &mut supplies);
        supplies.sort_by(f64::total_cmp);
        supplies.dedup_by(|x, first| *x - *first < 1e-9);
        Self {
            knots: supplies
                .into_iter()
                .map(|s| (s, inv_cop(chiller, s)))
                .collect(),
            free_from,
            free_inv,
        }
    }

    /// Conservative bound on `eval(s) − 1/cop(s)` over the build range,
    /// measured against `chiller`, the curve the model was built from
    /// (zero when the whole range free-cools).
    ///
    /// Per-segment chord error: both branches have the form `a/T + b` in
    /// the Kelvin supply, for which the chord−curve gap over `[T₀, T₁]`
    /// peaks exactly at `T* = √(T₀·T₁)`; the analytic peak is checked
    /// alongside a dense sample sweep and padded.
    pub fn max_error(&self, chiller: &Chiller) -> f64 {
        if self.knots.is_empty() {
            return 0.0;
        }
        let mut worst = 0.0f64;
        for seg in self.knots.windows(2) {
            let ((s0, v0), (s1, v1)) = (seg[0], seg[1]);
            if s1 - s0 <= 0.0 {
                continue;
            }
            let (k0, k1) = (kelvin(s0), kelvin(s1));
            // Analytic interior maximum of the chord gap for a/T + b.
            let geo = (k0 * k1).sqrt() - (k0 - s0);
            let mut probes = vec![geo];
            for i in 1..ERROR_SAMPLES {
                probes.push(s0 + (s1 - s0) * i as f64 / ERROR_SAMPLES as f64);
            }
            for s in probes {
                if !(s0..=s1).contains(&s) {
                    continue;
                }
                let t = (s - s0) / (s1 - s0);
                let chord = v0 + t * (v1 - v0);
                worst = worst.max(chord - inv_cop(chiller, s));
            }
        }
        // The padding absorbs the bisection slivers at the kink and the
        // free threshold plus float round-off in the interpolation.
        worst * 1.0625 + 1e-12
    }

    /// The modeled inverse COP at a supply temperature (°C). Exact at
    /// every knot and in the free-cooling regime; a chord overestimate in
    /// between; clamped to the boundary knots outside the build range.
    pub fn eval(&self, supply: f64) -> f64 {
        if supply >= self.free_from || self.knots.is_empty() {
            return self.free_inv;
        }
        let first = self.knots[0];
        if supply <= first.0 {
            return first.1;
        }
        let last = self.knots[self.knots.len() - 1];
        if supply >= last.0 {
            return last.1;
        }
        // Binary search for the bracketing segment.
        let mut lo = 0;
        let mut hi = self.knots.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.knots[mid].0 <= supply {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (s0, v0) = self.knots[lo];
        let (s1, v1) = self.knots[hi];
        let t = (supply - s0) / (s1 - s0);
        v0 + t * (v1 - v0)
    }
}

/// Appends `n + 1` evenly spaced points covering `[lo, hi]` (both ends).
fn linspace(lo: f64, hi: f64, n: usize, out: &mut Vec<f64>) {
    if hi <= lo {
        out.push(lo);
        return;
    }
    for i in 0..=n {
        out.push(lo + (hi - lo) * i as f64 / n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_sweep(chiller: &Chiller, pwl: &PwlCop, lo: f64, hi: f64) {
        let max_error = pwl.max_error(chiller);
        for i in 0..=4000 {
            let s = lo + (hi - lo) * i as f64 / 4000.0;
            let truth = inv_cop(chiller, s);
            let model = pwl.eval(s);
            assert!(
                model >= truth - 1e-12,
                "model dips below the curve at {s}: {model} < {truth}"
            );
            assert!(
                model <= truth + max_error,
                "model exceeds its own error bound at {s}: {model} vs {truth} + {max_error}"
            );
        }
    }

    #[test]
    fn brackets_the_curve_and_is_exact_at_knots() {
        for ambient in [25.0, 45.0, 70.0] {
            let chiller = Chiller::new(Celsius::new(ambient));
            let pwl = PwlCop::build(&chiller, 15.0, ambient + 10.0);
            for &(s, v) in &pwl.knots {
                assert_eq!(v, inv_cop(&chiller, s), "knot at {s} not exact");
                assert_eq!(pwl.eval(s), v, "eval at knot {s} not exact");
            }
            dense_sweep(&chiller, &pwl, 15.0, ambient + 10.0);
        }
    }

    #[test]
    fn free_cooling_is_exact_not_interpolated() {
        let chiller = Chiller::new(Celsius::new(45.0));
        let pwl = PwlCop::build(&chiller, 20.0, 80.0);
        // Anything at or past the threshold is the exact cap, bit for bit.
        let cap = 1.0 / chiller.cop(Celsius::new(80.0));
        assert_eq!(pwl.eval(pwl.free_from), cap);
        assert_eq!(pwl.eval(60.0), cap);
        assert_eq!(pwl.eval(80.0), cap);
        // Just below the threshold the compressed branch rules: the
        // minimum-lift COP (≈6.7 here) is far off the free-cooling cap.
        assert!(pwl.eval(pwl.free_from - 0.1) > cap * 2.0);
    }

    #[test]
    fn all_free_range_degenerates_to_a_constant() {
        let chiller = Chiller::new(Celsius::new(25.0));
        let pwl = PwlCop::build(&chiller, 40.0, 70.0);
        assert!(pwl.knots.is_empty());
        assert_eq!(pwl.max_error(&chiller), 0.0);
        assert_eq!(pwl.eval(55.0), 1.0 / chiller.cop(Celsius::new(55.0)));
    }

    #[test]
    fn error_bound_shrinks_with_the_range() {
        // A narrow range has shorter chords, hence a tighter bound.
        let chiller = Chiller::new(Celsius::new(70.0));
        let wide = PwlCop::build(&chiller, 15.0, 70.0);
        let narrow = PwlCop::build(&chiller, 40.0, 50.0);
        let (wide, narrow) = (wide.max_error(&chiller), narrow.max_error(&chiller));
        assert!(narrow <= wide);
        assert!(wide < 0.05, "bound {wide}");
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn rejects_inverted_ranges() {
        let _ = PwlCop::build(&Chiller::default(), 50.0, 20.0);
    }
}
