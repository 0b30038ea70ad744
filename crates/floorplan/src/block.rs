//! Floorplan blocks and component kinds.

use crate::rect::Rect;
use core::fmt;

/// Identifier of a block within its [`Floorplan`](crate::Floorplan).
///
/// Stable for the lifetime of the floorplan (assigned in insertion order
/// as the floorplan is built).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub(crate) usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// The architectural function of a floorplan block.
///
/// Mirrors the components visible in the paper's Fig. 2c die shot:
/// cores (with their L1/L2), two slots reserved for the deca-core SKU,
/// the 25 MB last-level cache, the memory controller strip, and the
/// queue/uncore/IO strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// An active CPU core (with private L1/L2). Carries the 1-based core
    /// index used in the paper (Core1–Core8).
    Core(u8),
    /// A dark-silicon core slot reserved for the deca-core die variant.
    /// Produces no power — the "dead area" of Sec. VI-A.
    ReservedCore,
    /// The shared last-level cache (25 MB on the target Xeon).
    LastLevelCache,
    /// The memory controller strip.
    MemoryController,
    /// Queue, uncore and I/O controller strip.
    UncoreIo,
    /// Non-functional filler silicon (produces no power).
    Filler,
}

impl ComponentKind {
    /// Returns the 1-based core index if this is a [`ComponentKind::Core`].
    pub(crate) fn core_index(self) -> Option<u8> {
        match self {
            ComponentKind::Core(i) => Some(i),
            _ => None,
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::Core(i) => write!(f, "Core{i}"),
            ComponentKind::ReservedCore => write!(f, "Reserved"),
            ComponentKind::LastLevelCache => write!(f, "LLC"),
            ComponentKind::MemoryController => write!(f, "MemCtl"),
            ComponentKind::UncoreIo => write!(f, "UncoreIO"),
            ComponentKind::Filler => write!(f, "Filler"),
        }
    }
}

/// A placed component: a [`ComponentKind`] occupying a [`Rect`] of the die.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub(crate) id: BlockId,
    pub(crate) name: String,
    pub(crate) kind: ComponentKind,
    pub(crate) rect: Rect,
}

impl Block {
    /// The block's identifier within its floorplan.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The architectural function of the block.
    #[inline]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The block's placement rectangle in die coordinates.
    #[inline]
    pub fn rect(&self) -> &Rect {
        &self.rect
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}) @ {}", self.name, self.kind, self.rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_and_queries() {
        assert_eq!(ComponentKind::Core(3).to_string(), "Core3");
        assert_eq!(ComponentKind::Core(3).core_index(), Some(3));
        assert_eq!(ComponentKind::LastLevelCache.core_index(), None);
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(4).to_string(), "block#4");
    }
}
