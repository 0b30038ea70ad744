//! Thermosyphon design-time parameters (Sec. VI of the paper).

use core::fmt;
use tps_floorplan::{PackageGeometry, Rect};
use tps_fluids::Refrigerant;
use tps_units::Fraction;

/// The evaporator's micro-channel flow axis and inlet side.
///
/// The package is not square and the die is not symmetric (the LLC east half
/// produces almost no power), so the orientation changes both the channel
/// count and which components sit near the (cooler) inlet — the paper's
/// Fig. 5 compares the first two variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Design 1: channels along x; refrigerant enters on the east side
    /// (above the LLC) and exits west. Chosen by the paper.
    InletEast,
    /// Design 2: channels along y; refrigerant enters on the north side and
    /// exits south.
    InletNorth,
    /// Design 1 mirrored: channels along x, inlet on the west (core) side.
    /// Used by ablation studies.
    InletWest,
    /// Design 2 mirrored: channels along y, inlet south.
    InletSouth,
}

impl Orientation {
    /// `true` if the channels run along the x (east–west) axis.
    pub fn is_horizontal(self) -> bool {
        matches!(self, Orientation::InletEast | Orientation::InletWest)
    }

    /// All orientations.
    pub const ALL: [Orientation; 4] = [
        Orientation::InletEast,
        Orientation::InletNorth,
        Orientation::InletWest,
        Orientation::InletSouth,
    ];
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Orientation::InletEast => "inlet-east (design 1)",
            Orientation::InletNorth => "inlet-north (design 2)",
            Orientation::InletWest => "inlet-west",
            Orientation::InletSouth => "inlet-south",
        };
        f.write_str(s)
    }
}

/// Micro-channel width, metres.
const CHANNEL_WIDTH_M: f64 = 0.35e-3;
/// Fin width between two micro-channels, metres.
const FIN_WIDTH_M: f64 = 0.15e-3;
/// Micro-channel height, metres.
const CHANNEL_HEIGHT_M: f64 = 1.5e-3;
/// Riser (gravity head) height, metres.
pub(crate) const RISER_HEIGHT_M: f64 = 0.25;
/// Riser/downcomer pipe inner diameter, metres.
pub(crate) const PIPE_DIAMETER_M: f64 = 3.0e-3;
/// Boiling-area enhancement of the finned micro-channel surface over the
/// projected base area.
pub(crate) const FIN_FACTOR: f64 = 2.5;

/// A complete thermosyphon design: everything fixed at manufacturing time.
/// The prototype's channel, riser and pipe geometry are this module's
/// constants; a design chooses its orientation, fluid and charge.
///
/// Use [`ThermosyphonDesign::paper_design`] for the paper's choice
/// (Design 1, R236fa, 55 % filling ratio) or the
/// [builder](ThermosyphonDesign::builder) to explore alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermosyphonDesign {
    footprint: Rect,
    orientation: Orientation,
    refrigerant: Refrigerant,
    filling_ratio: Fraction,
}

impl ThermosyphonDesign {
    /// Starts a builder with the prototype's geometry defaults on the given
    /// package footprint.
    pub fn builder(pkg: &PackageGeometry) -> ThermosyphonDesignBuilder {
        ThermosyphonDesignBuilder {
            design: ThermosyphonDesign {
                footprint: *pkg.spreader_rect(),
                orientation: Orientation::InletEast,
                refrigerant: Refrigerant::R236fa,
                filling_ratio: Fraction::new(0.55).expect("0.55 is a valid fraction"),
            },
        }
    }

    /// The paper's design point: Design 1 (inlet east), R236fa, 55 % fill.
    pub fn paper_design(pkg: &PackageGeometry) -> Self {
        Self::builder(pkg).build()
    }

    /// The evaporator footprint (= package spreader outline).
    pub(crate) fn footprint(&self) -> &Rect {
        &self.footprint
    }

    /// The micro-channel orientation.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// The working fluid.
    pub(crate) fn refrigerant(&self) -> Refrigerant {
        self.refrigerant
    }

    /// The liquid filling ratio of the charge.
    pub fn filling_ratio(&self) -> Fraction {
        self.filling_ratio
    }

    /// Channel pitch (channel + fin) in metres.
    pub(crate) fn channel_pitch_m(&self) -> f64 {
        CHANNEL_WIDTH_M + FIN_WIDTH_M
    }

    /// Channel cross-section area in m².
    pub(crate) fn channel_area_m2(&self) -> f64 {
        CHANNEL_WIDTH_M * CHANNEL_HEIGHT_M
    }

    /// Channel hydraulic diameter in metres.
    pub(crate) fn hydraulic_diameter_m(&self) -> f64 {
        2.0 * CHANNEL_WIDTH_M * CHANNEL_HEIGHT_M / (CHANNEL_WIDTH_M + CHANNEL_HEIGHT_M)
    }

    /// Number of parallel micro-channels: perpendicular extent / pitch.
    ///
    /// East–west channels stack along the (32 mm) height, north–south ones
    /// along the (36 mm) width — the orientation changes the channel count,
    /// as noted in Sec. VI-A.
    pub(crate) fn n_channels(&self) -> usize {
        let perpendicular = if self.orientation.is_horizontal() {
            self.footprint.height().value()
        } else {
            self.footprint.width().value()
        };
        (perpendicular / self.channel_pitch_m()).floor().max(1.0) as usize
    }

    /// Channel length along the flow axis, metres.
    pub(crate) fn channel_length_m(&self) -> f64 {
        if self.orientation.is_horizontal() {
            self.footprint.width().value()
        } else {
            self.footprint.height().value()
        }
    }
}

impl fmt::Display for ThermosyphonDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / fill {:.0} / {} channels × {:.1} mm",
            self.orientation,
            self.refrigerant,
            self.filling_ratio,
            self.n_channels(),
            self.channel_length_m() * 1e3,
        )
    }
}

/// Builder for [`ThermosyphonDesign`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone)]
pub struct ThermosyphonDesignBuilder {
    design: ThermosyphonDesign,
}

impl ThermosyphonDesignBuilder {
    /// Sets the channel orientation.
    pub fn orientation(mut self, o: Orientation) -> Self {
        self.design.orientation = o;
        self
    }

    /// Sets the working fluid.
    pub(crate) fn refrigerant(mut self, r: Refrigerant) -> Self {
        self.design.refrigerant = r;
        self
    }

    /// Sets the filling ratio.
    pub fn filling_ratio(mut self, fr: Fraction) -> Self {
        self.design.filling_ratio = fr;
        self
    }

    /// Finalises the design.
    pub fn build(self) -> ThermosyphonDesign {
        self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::xeon_e5_v4;

    fn pkg() -> PackageGeometry {
        PackageGeometry::xeon(&xeon_e5_v4())
    }

    #[test]
    fn paper_design_defaults() {
        let d = ThermosyphonDesign::paper_design(&pkg());
        assert_eq!(d.orientation(), Orientation::InletEast);
        assert_eq!(d.refrigerant(), Refrigerant::R236fa);
        assert!((d.filling_ratio().value() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn orientation_changes_channel_count_and_length() {
        let d1 = ThermosyphonDesign::paper_design(&pkg());
        let d2 = ThermosyphonDesign::builder(&pkg())
            .orientation(Orientation::InletNorth)
            .build();
        // 32 mm / 0.5 mm = 64 channels of 36 mm (design 1);
        // 36 mm / 0.5 mm = 72 channels of 32 mm (design 2).
        assert_eq!(d1.n_channels(), 64);
        assert_eq!(d2.n_channels(), 72);
        assert!((d1.channel_length_m() - 36e-3).abs() < 1e-9);
        assert!((d2.channel_length_m() - 32e-3).abs() < 1e-9);
    }

    #[test]
    fn hydraulic_diameter() {
        let d = ThermosyphonDesign::paper_design(&pkg());
        // 2·w·h/(w+h) = 2·0.35·1.5/1.85 ≈ 0.568 mm.
        assert!((d.hydraulic_diameter_m() - 0.5676e-3).abs() < 1e-6);
    }

    #[test]
    fn builder_overrides() {
        let d = ThermosyphonDesign::builder(&pkg())
            .orientation(Orientation::InletSouth)
            .refrigerant(Refrigerant::R134a)
            .filling_ratio(Fraction::new(0.4).unwrap())
            .build();
        assert_eq!(d.orientation(), Orientation::InletSouth);
        assert_eq!(d.refrigerant(), Refrigerant::R134a);
        assert!((d.filling_ratio().value() - 0.4).abs() < 1e-12);
        assert!(!d.orientation().is_horizontal());
    }
}
