//! The server catalog: named hardware classes and their assignment to
//! rack slots.
//!
//! The paper models one server; real fleets mix hardware generations,
//! thermal-grid densities and de-rated bins, and the heterogeneous regime
//! is exactly where thermal-aware placement earns its keep (Sun et al.;
//! Rostami et al.). A [`ServerClass`] names one configuration — any field
//! left at `None` inherits the fleet-wide default from
//! [`FleetConfig`](crate::FleetConfig) — and a [`FleetCatalog`] maps every
//! `(rack, slot)` to a class. The default catalog is a single fully
//! inheriting class on every slot, which reproduces the homogeneous fleet
//! bit for bit.

use crate::fleet::PolicyId;

/// Index of a [`ServerClass`] within its [`FleetCatalog`].
pub type ClassId = usize;

/// One named server hardware configuration.
///
/// Fields at `None` inherit the fleet-wide default, so a catalog whose
/// classes override nothing behaves exactly like the homogeneous fleet.
///
/// ```
/// use tps_cluster::{PolicyId, ServerClass};
///
/// let dense = ServerClass::new("dense").pitch(2.0);
/// let sparse = ServerClass::new("sparse").pitch(3.0).inlet(35.0);
/// let derated = ServerClass::new("derated").policy(PolicyId::Packed);
/// assert_eq!(dense.name, "dense");
/// assert_eq!(sparse.water_inlet_c, Some(35.0));
/// assert_eq!(derated.policy, Some(PolicyId::Packed));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerClass {
    /// Class name (report tables, trace columns, spec files).
    pub name: String,
    /// Thermal-grid pitch of this class's per-server simulation, mm
    /// (`None` ⇒ the fleet's `grid_pitch_mm`).
    pub grid_pitch_mm: Option<f64>,
    /// Water inlet of this class's thermosyphon loop, °C (`None` ⇒ the
    /// fleet operating point's inlet).
    pub water_inlet_c: Option<f64>,
    /// Per-class mapping-policy override (`None` ⇒ the fleet's policy).
    pub policy: Option<PolicyId>,
}

impl ServerClass {
    /// A class that inherits every fleet default.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            grid_pitch_mm: None,
            water_inlet_c: None,
            policy: None,
        }
    }

    /// Overrides the thermal-grid pitch (mm).
    ///
    /// # Panics
    ///
    /// Panics if `mm` is not positive and finite.
    pub fn pitch(mut self, mm: f64) -> Self {
        assert!(mm > 0.0 && mm.is_finite(), "class pitch must be positive");
        self.grid_pitch_mm = Some(mm);
        self
    }

    /// Overrides the water inlet (°C).
    pub fn inlet(mut self, celsius: f64) -> Self {
        assert!(celsius.is_finite(), "class inlet must be finite");
        self.water_inlet_c = Some(celsius);
        self
    }

    /// Overrides the mapping policy.
    pub fn policy(mut self, policy: PolicyId) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// Which [`ServerClass`] sits in every rack slot.
///
/// Each rack carries a class *pattern* cycled across its slots, so
/// `["dense", "sparse"]` on a 4-server rack yields
/// dense/sparse/dense/sparse. Racks without a pattern (and the default
/// [`uniform`](Self::uniform) catalog) are class 0 throughout.
///
/// ```
/// use tps_cluster::{FleetCatalog, ServerClass};
///
/// let catalog = FleetCatalog::new(vec![
///     ServerClass::new("dense").pitch(2.5),
///     ServerClass::new("sparse").pitch(3.0),
/// ])
/// .assign(vec![vec![0], vec![0, 1]]);
/// assert_eq!(catalog.class_of(0, 3), 0); // rack 0: all dense
/// assert_eq!(catalog.class_of(1, 0), 0); // rack 1 alternates…
/// assert_eq!(catalog.class_of(1, 1), 1);
/// assert_eq!(catalog.class_of(7, 0), 0); // unassigned racks: class 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCatalog {
    classes: Vec<ServerClass>,
    /// Per-rack class pattern, cycled across the rack's slots. Racks
    /// beyond this vector (or with an empty pattern) are class 0.
    racks: Vec<Vec<ClassId>>,
}

impl Default for FleetCatalog {
    fn default() -> Self {
        Self::uniform()
    }
}

impl FleetCatalog {
    /// The homogeneous catalog: one fully inheriting class everywhere.
    pub fn uniform() -> Self {
        Self {
            classes: vec![ServerClass::new("default")],
            racks: Vec::new(),
        }
    }

    /// A catalog over the given classes, all racks class 0 until
    /// [`assign`](Self::assign)ed.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or two classes share a name.
    pub fn new(classes: Vec<ServerClass>) -> Self {
        assert!(!classes.is_empty(), "a catalog needs at least one class");
        for (i, c) in classes.iter().enumerate() {
            assert!(
                classes[..i].iter().all(|p| p.name != c.name),
                "duplicate server class `{}`",
                c.name
            );
        }
        Self {
            classes,
            racks: Vec::new(),
        }
    }

    /// Sets the per-rack class patterns (cycled across each rack's
    /// slots). A pattern may be empty (class 0); racks beyond the vector
    /// are class 0.
    ///
    /// # Panics
    ///
    /// Panics if any pattern references a class id out of range.
    pub fn assign(mut self, racks: Vec<Vec<ClassId>>) -> Self {
        for (r, pattern) in racks.iter().enumerate() {
            for &id in pattern {
                assert!(
                    id < self.classes.len(),
                    "rack {r} references class {id}, but the catalog has {} classes",
                    self.classes.len()
                );
            }
        }
        self.racks = racks;
        self
    }

    /// The declared classes, in catalog order (index = [`ClassId`]).
    pub fn classes(&self) -> &[ServerClass] {
        &self.classes
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `false` — a catalog always declares at least one class.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The class occupying `(rack, slot)`.
    pub fn class_of(&self, rack: usize, slot: usize) -> ClassId {
        match self.racks.get(rack) {
            Some(pattern) if !pattern.is_empty() => pattern[slot % pattern.len()],
            _ => 0,
        }
    }

    /// Looks a class up by name.
    pub fn find(&self, name: &str) -> Option<ClassId> {
        self.classes.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_catalog_is_class_zero_everywhere() {
        let c = FleetCatalog::uniform();
        assert_eq!(c.len(), 1);
        assert_eq!(c.class_of(3, 7), 0);
        assert_eq!(c.classes()[0].name, "default");
        assert_eq!(c.classes()[0].grid_pitch_mm, None);
    }

    #[test]
    fn patterns_cycle_across_slots_and_lookup_by_name_works() {
        let c = FleetCatalog::new(vec![
            ServerClass::new("a"),
            ServerClass::new("b").pitch(3.0),
        ])
        .assign(vec![vec![1], vec![0, 1, 1]]);
        assert_eq!(c.class_of(0, 0), 1);
        assert_eq!(c.class_of(0, 5), 1);
        assert_eq!(c.class_of(1, 0), 0);
        assert_eq!(c.class_of(1, 4), 1); // 4 % 3 = 1 → b
        assert_eq!(c.class_of(2, 0), 0); // unassigned rack
        assert_eq!(c.find("b"), Some(1));
        assert_eq!(c.find("zzz"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate server class")]
    fn duplicate_names_panic() {
        FleetCatalog::new(vec![ServerClass::new("x"), ServerClass::new("x")]);
    }

    #[test]
    #[should_panic(expected = "references class")]
    fn out_of_range_assignment_panics() {
        FleetCatalog::new(vec![ServerClass::new("x")]).assign(vec![vec![1]]);
    }
}
