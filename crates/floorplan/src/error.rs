//! Floorplan construction errors.

use core::fmt;

/// Error produced while building or validating a [`Floorplan`](crate::Floorplan).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FloorplanError {
    /// A block extends beyond the die outline.
    OutOfBounds {
        /// Name of the offending block.
        block: String,
    },
    /// Two blocks overlap with positive area.
    Overlap {
        /// Name of the first offending block.
        first: String,
        /// Name of the second offending block.
        second: String,
        /// Overlap area in mm².
        area_mm2: f64,
    },
    /// Two cores carry the same 1-based index.
    DuplicateCoreIndex {
        /// The duplicated index.
        index: u8,
    },
    /// The floorplan has no blocks at all.
    Empty,
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::OutOfBounds { block } => {
                write!(f, "block `{block}` extends beyond the die outline")
            }
            FloorplanError::Overlap {
                first,
                second,
                area_mm2,
            } => write!(
                f,
                "blocks `{first}` and `{second}` overlap by {area_mm2:.3} mm²"
            ),
            FloorplanError::DuplicateCoreIndex { index } => {
                write!(f, "core index {index} is used by more than one block")
            }
            FloorplanError::Empty => write!(f, "floorplan contains no blocks"),
        }
    }
}

impl std::error::Error for FloorplanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = FloorplanError::Overlap {
            first: "core1".into(),
            second: "llc".into(),
            area_mm2: 1.25,
        };
        let msg = e.to_string();
        assert!(msg.contains("core1") && msg.contains("llc") && msg.contains("1.250"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }
}
