//! Strongly-typed, compact identifiers.
//!
//! Every object the pipeline touches millions of times — entities,
//! attributes, tokens, blocks — is referred to by a `u32` newtype. This
//! keeps hot structures small (see the type-size guidance in the perf
//! book) and prevents mixing id spaces at compile time.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Builds an id from a `usize` index, panicking on overflow.
            ///
            /// KBs in this workspace are bounded well below `u32::MAX`
            /// entities; overflow here is a programming error.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "id space overflow");
                Self(index as u32)
            }

            /// Returns the id as a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

define_id! {
    /// Identifies an entity description within one [`crate::KnowledgeBase`].
    EntityId
}
define_id! {
    /// Identifies an attribute (predicate) within one [`crate::KnowledgeBase`].
    AttrId
}
define_id! {
    /// Identifies a token within a `minoan_text::TokenDictionary`-style
    /// dictionary shared by a KB pair.
    TokenId
}
define_id! {
    /// Identifies a block within a block collection.
    BlockId
}

/// Which side of a KB pair an entity belongs to.
///
/// MinoanER is a *clean-clean* ER method: it links two individually
/// duplicate-free KBs, conventionally called `E1` and `E2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KbSide {
    /// The first KB (`E1` in the paper). Recall is reported w.r.t. its
    /// ground-truth entities.
    First,
    /// The second KB (`E2` in the paper).
    Second,
}

impl KbSide {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Self {
        match self {
            KbSide::First => KbSide::Second,
            KbSide::Second => KbSide::First,
        }
    }

    /// Index (0 for `First`, 1 for `Second`) for array-of-two storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            KbSide::First => 0,
            KbSide::Second => 1,
        }
    }
}

/// An entity qualified by the side of the pair it lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairEntity {
    /// Which KB the entity belongs to.
    pub side: KbSide,
    /// The entity within that KB.
    pub entity: EntityId,
}

impl PairEntity {
    /// Convenience constructor.
    #[inline]
    pub fn new(side: KbSide, entity: EntityId) -> Self {
        Self { side, entity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let e = EntityId::from_index(42);
        assert_eq!(e.index(), 42);
        assert_eq!(e, EntityId(42));
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(AttrId(1) < AttrId(2));
        assert!(TokenId(0) < TokenId(u32::MAX));
    }

    #[test]
    fn side_other_is_involutive() {
        assert_eq!(KbSide::First.other(), KbSide::Second);
        assert_eq!(KbSide::Second.other().other(), KbSide::Second);
        assert_eq!(KbSide::First.index(), 0);
        assert_eq!(KbSide::Second.index(), 1);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(EntityId(7).to_string(), "EntityId#7");
    }

    #[test]
    fn pair_entity_orders_side_first() {
        let a = PairEntity::new(KbSide::First, EntityId(9));
        let b = PairEntity::new(KbSide::Second, EntityId(0));
        assert!(a < b);
    }
}
