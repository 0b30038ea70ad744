//! Vertical layer stacks (die → TIM → spreader → TIM → evaporator base).

use crate::material::Material;
use core::fmt;
use tps_floorplan::{PackageGeometry, Rect};

/// One slab of the stack: a primary material inside an optional window,
/// surrounded by a filler material (underfill/air gap) elsewhere.
///
/// A `window` of `None` means the primary material fills the whole extent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layer {
    name: String,
    material: Material,
    filler: Material,
    thickness_m: f64,
    window: Option<Rect>,
}

impl Layer {
    /// The layer's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The primary material.
    pub(crate) fn material(&self) -> &Material {
        &self.material
    }

    /// Slab thickness in metres.
    pub(crate) fn thickness_m(&self) -> f64 {
        self.thickness_m
    }

    /// The window within which the primary material applies.
    pub(crate) fn window(&self) -> Option<&Rect> {
        self.window.as_ref()
    }

    /// The material at a lateral position.
    pub(crate) fn material_at(&self, x: f64, y: f64) -> &Material {
        match &self.window {
            Some(w) if !w.contains(x, y) => &self.filler,
            _ => &self.material,
        }
    }
}

/// Error building a [`LayerStack`].
#[derive(Debug, Clone, PartialEq)]
pub enum StackError {
    /// The stack has no layers.
    Empty,
    /// A layer thickness is non-positive or not finite.
    BadThickness {
        /// Name of the offending layer.
        layer: String,
    },
    /// A window leaves the stack extent.
    WindowOutOfBounds {
        /// Name of the offending layer.
        layer: String,
    },
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Empty => write!(f, "layer stack contains no layers"),
            StackError::BadThickness { layer } => {
                write!(f, "layer `{layer}` has a non-positive thickness")
            }
            StackError::WindowOutOfBounds { layer } => {
                write!(f, "window of layer `{layer}` leaves the stack extent")
            }
        }
    }
}

impl std::error::Error for StackError {}

/// An ordered stack of layers over a common lateral extent
/// (layer 0 at the bottom; the device/power layer).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    extent: Rect,
    layers: Vec<Layer>,
}

impl LayerStack {
    /// Starts building a stack over `extent`.
    pub fn builder(extent: Rect) -> StackBuilder {
        StackBuilder {
            extent,
            layers: Vec::new(),
        }
    }

    /// The canonical Xeon + thermosyphon stack of the paper's platform
    /// (bottom → top): 0.7 mm silicon die and its TIM, both windowed to the
    /// die outline inside underfill; 2 mm copper spreader; mounting TIM;
    /// 1 mm copper evaporator base carrying the micro-channels on top.
    ///
    /// The extent is the spreader/evaporator footprint from `pkg`.
    pub fn xeon_thermosyphon(pkg: &PackageGeometry) -> Self {
        let extent = *pkg.spreader_rect();
        let die = pkg.die_rect();
        Self::builder(extent)
            .windowed_layer("die", Material::silicon(), 0.7e-3, die)
            .windowed_layer("tim1", Material::tim_grease(), 0.08e-3, die)
            .layer("spreader", Material::copper(), 2.0e-3)
            .layer("tim2", Material::tim_mount(), 0.1e-3)
            .layer("evap-base", Material::copper(), 1.0e-3)
            .build()
            .expect("the built-in stack must validate")
    }

    /// The lateral extent shared by all layers.
    pub fn extent(&self) -> &Rect {
        &self.extent
    }

    /// The layers, bottom first.
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total stack height in metres.
    pub(crate) fn total_thickness_m(&self) -> f64 {
        self.layers.iter().map(Layer::thickness_m).sum()
    }
}

impl fmt::Display for LayerStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stack over {} ({} layers, {:.2} mm):",
            self.extent,
            self.layers.len(),
            self.total_thickness_m() * 1e3
        )?;
        for (i, l) in self.layers.iter().enumerate() {
            writeln!(
                f,
                "  [{i}] {} — {} {:.2} mm{}",
                l.name(),
                l.material().name(),
                l.thickness_m() * 1e3,
                if l.window().is_some() {
                    " (windowed)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

/// Builder for [`LayerStack`].
#[derive(Debug, Clone)]
pub struct StackBuilder {
    extent: Rect,
    layers: Vec<Layer>,
}

impl StackBuilder {
    /// Adds a full-extent layer on top of the stack built so far.
    pub fn layer(mut self, name: impl Into<String>, material: Material, thickness_m: f64) -> Self {
        self.layers.push(Layer {
            name: name.into(),
            material,
            filler: Material::underfill(),
            thickness_m,
            window: None,
        });
        self
    }

    /// Adds a layer whose primary material applies only inside `window`
    /// (underfill elsewhere).
    pub fn windowed_layer(
        mut self,
        name: impl Into<String>,
        material: Material,
        thickness_m: f64,
        window: Rect,
    ) -> Self {
        self.layers.push(Layer {
            name: name.into(),
            material,
            filler: Material::underfill(),
            thickness_m,
            window: Some(window),
        });
        self
    }

    /// Validates and finalises the stack.
    ///
    /// # Errors
    ///
    /// Returns [`StackError`] if the stack is empty, a thickness is
    /// non-positive, or a window leaves the extent.
    pub fn build(self) -> Result<LayerStack, StackError> {
        if self.layers.is_empty() {
            return Err(StackError::Empty);
        }
        for l in &self.layers {
            if !(l.thickness_m.is_finite() && l.thickness_m > 0.0) {
                return Err(StackError::BadThickness {
                    layer: l.name.clone(),
                });
            }
            if let Some(w) = &l.window {
                if !w.within(&self.extent) {
                    return Err(StackError::WindowOutOfBounds {
                        layer: l.name.clone(),
                    });
                }
            }
        }
        Ok(LayerStack {
            extent: self.extent,
            layers: self.layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::xeon_e5_v4;

    #[test]
    fn xeon_stack_shape() {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let s = LayerStack::xeon_thermosyphon(&pkg);
        assert_eq!(s.layers().len(), 5);
        assert_eq!(s.layers()[0].name(), "die");
        assert_eq!(s.layers()[4].name(), "evap-base");
        assert!((s.total_thickness_m() - 3.88e-3).abs() < 1e-9);
    }

    #[test]
    fn windowed_material_lookup() {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let s = LayerStack::xeon_thermosyphon(&pkg);
        let die_layer = &s.layers()[0];
        let (cx, cy) = pkg.die_rect().center();
        assert_eq!(die_layer.material_at(cx, cy).name(), "silicon");
        // Corner of the spreader is outside the die window → underfill.
        assert_eq!(die_layer.material_at(1e-4, 1e-4).name(), "underfill");
        // The spreader is everywhere copper.
        let spreader = &s.layers()[2];
        assert_eq!(spreader.material_at(1e-4, 1e-4).name(), "copper");
    }

    #[test]
    fn rejects_empty_and_bad_thickness() {
        let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            LayerStack::builder(extent).build().unwrap_err(),
            StackError::Empty
        );
        let err = LayerStack::builder(extent)
            .layer("zero", Material::copper(), 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, StackError::BadThickness { .. }));
    }

    #[test]
    fn rejects_out_of_extent_window() {
        let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
        let err = LayerStack::builder(extent)
            .windowed_layer(
                "die",
                Material::silicon(),
                1e-3,
                Rect::from_mm(5.0, 5.0, 10.0, 10.0),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, StackError::WindowOutOfBounds { .. }));
    }
}
