//! Rasterizing component powers onto simulation grids.

use tps_floorplan::{rasterize_rect, ComponentKind, Floorplan, GridSpec, Rect, ScalarField};
use tps_units::Watts;

/// Width fraction of a core occupied by its execution cluster (ALU/FPU/
/// register files — the within-core hot spot visible in die thermography).
const CORE_HOT_WIDTH_FRACTION: f64 = 0.40;

/// Share of the core's power dissipated inside the execution cluster.
///
/// Broadwell-class cores concentrate roughly two thirds of their power in
/// about 40 % of the core area; modelling this is what keeps die hot spots
/// high even for low-core-count configurations (the paper's Table II shows
/// only a ~10 °C drop from 1× to 3× QoS despite halving the package power).
const CORE_HOT_POWER_FRACTION: f64 = 0.65;

/// Power dissipated by each die component — the `H_i` heat-source vector of
/// Algorithm 1 (line 7), before rasterization onto the thermal grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DiePowerBreakdown {
    /// Power of cores 1–8 (index 0 = Core1). Idle cores carry their C-state
    /// residual power, not zero.
    pub core: [Watts; 8],
    /// Last-level cache power.
    pub llc: Watts,
    /// Memory-controller strip power.
    pub mem_ctl: Watts,
    /// Queue/uncore/IO strip power.
    pub uncore_io: Watts,
}

impl DiePowerBreakdown {
    /// An all-zero breakdown.
    pub fn zero() -> Self {
        Self {
            core: [Watts::ZERO; 8],
            llc: Watts::ZERO,
            mem_ctl: Watts::ZERO,
            uncore_io: Watts::ZERO,
        }
    }

    /// Total die power.
    pub fn total(&self) -> Watts {
        self.core.iter().copied().sum::<Watts>() + self.llc + self.mem_ctl + self.uncore_io
    }

    /// The power assigned to a component kind.
    pub(crate) fn power_of(&self, kind: ComponentKind) -> Watts {
        match kind {
            ComponentKind::Core(i) if (1..=8).contains(&i) => self.core[i as usize - 1],
            ComponentKind::Core(_) => Watts::ZERO,
            ComponentKind::LastLevelCache => self.llc,
            ComponentKind::MemoryController => self.mem_ctl,
            ComponentKind::UncoreIo => self.uncore_io,
            ComponentKind::ReservedCore | ComponentKind::Filler => Watts::ZERO,
        }
    }
}

impl core::fmt::Display for DiePowerBreakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "die power {:.1} (cores", self.total())?;
        for c in &self.core {
            write!(f, " {:.1}", c.value())?;
        }
        write!(
            f,
            " W; llc {:.1}, mem {:.1}, io {:.1})",
            self.llc.value(),
            self.mem_ctl.value(),
            self.uncore_io.value()
        )
    }
}

/// Rasterizes a [`DiePowerBreakdown`] onto `grid` (watts per cell).
///
/// `offset` translates die coordinates into grid coordinates (the die origin
/// within the package). The rasterization is conservative: the field total
/// equals [`DiePowerBreakdown::total`].
///
/// ```
/// use tps_floorplan::{xeon_e5_v4, GridSpec, Rect};
/// use tps_power::{power_field, DiePowerBreakdown};
/// use tps_units::Watts;
///
/// let fp = xeon_e5_v4();
/// let grid = GridSpec::new(36, 28, *fp.outline());
/// let mut powers = DiePowerBreakdown::zero();
/// powers.core[0] = Watts::new(8.0);
/// let field = power_field(&fp, &grid, (0.0, 0.0), &powers);
/// assert!((field.total() - 8.0).abs() < 1e-9);
/// ```
pub fn power_field(
    fp: &Floorplan,
    grid: &GridSpec,
    offset: (f64, f64),
    powers: &DiePowerBreakdown,
) -> ScalarField {
    let mut field = ScalarField::zeros(grid.clone());
    for block in fp.blocks() {
        let total = powers.power_of(block.kind()).value();
        if total == 0.0 {
            continue;
        }
        let rect = block.rect().translated(offset.0, offset.1);
        if matches!(block.kind(), ComponentKind::Core(_)) {
            // Within-core structure: a centred execution-cluster strip
            // carries most of the power, the caches the rest.
            let hot_w = rect.width().value() * CORE_HOT_WIDTH_FRACTION;
            let hot = Rect::from_m(
                rect.x_min() + (rect.width().value() - hot_w) / 2.0,
                rect.y_min(),
                hot_w,
                rect.height().value(),
            );
            rasterize_rect(&mut field, &hot, total * CORE_HOT_POWER_FRACTION);
            rasterize_rect(&mut field, &rect, total * (1.0 - CORE_HOT_POWER_FRACTION));
        } else {
            rasterize_rect(&mut field, &rect, total);
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::{xeon_e5_v4, Rect};

    fn uniform_breakdown() -> DiePowerBreakdown {
        DiePowerBreakdown {
            core: [Watts::new(5.0); 8],
            llc: Watts::new(2.0),
            mem_ctl: Watts::new(4.0),
            uncore_io: Watts::new(5.0),
        }
    }

    #[test]
    fn total_sums_all_components() {
        assert_eq!(uniform_breakdown().total(), Watts::new(51.0));
        assert_eq!(DiePowerBreakdown::zero().total(), Watts::ZERO);
    }

    #[test]
    fn power_of_kind() {
        let b = uniform_breakdown();
        assert_eq!(b.power_of(ComponentKind::Core(3)), Watts::new(5.0));
        assert_eq!(b.power_of(ComponentKind::ReservedCore), Watts::ZERO);
        assert_eq!(b.power_of(ComponentKind::LastLevelCache), Watts::new(2.0));
        assert_eq!(b.power_of(ComponentKind::Core(9)), Watts::ZERO);
    }

    #[test]
    fn field_conserves_power() {
        let fp = xeon_e5_v4();
        let grid = GridSpec::new(45, 40, *fp.outline());
        let b = uniform_breakdown();
        let f = power_field(&fp, &grid, (0.0, 0.0), &b);
        assert!((f.total() - b.total().value()).abs() < 1e-9);
    }

    #[test]
    fn west_side_is_hotter_than_llc_side() {
        // Cores dissipate on the west half; the LLC east half is nearly dark.
        let fp = xeon_e5_v4();
        let grid = GridSpec::new(36, 28, *fp.outline());
        let f = power_field(&fp, &grid, (0.0, 0.0), &uniform_breakdown());
        let west = Rect::from_mm(0.0, 2.4, 9.0, 11.27);
        let east = Rect::from_mm(9.0, 2.4, 9.0, 11.27);
        assert!(f.mean_in_rect(&west).unwrap() > 4.0 * f.mean_in_rect(&east).unwrap());
    }

    #[test]
    fn reserved_slots_get_no_power() {
        let fp = xeon_e5_v4();
        let grid = GridSpec::new(36, 28, *fp.outline());
        let f = power_field(&fp, &grid, (0.0, 0.0), &uniform_breakdown());
        // South-west corner of the core region = reserved-w slot (row 4).
        // Its cells receive zero power.
        let reserved = Rect::from_mm(0.5, 2.6, 3.5, 1.5);
        assert!(f.max_in_rect(&reserved).unwrap() < 1e-12);
    }
}
