//! The [`Item`] type: a dense integer identifier for a market-basket item.
//!
//! Items are identified by a `u32` index into the item universe
//! `0..n_items`. Attributes of items (price, type, ...) live in
//! `ccs-constraints`' attribute tables, keyed by this index, so the mining
//! kernel itself only ever moves small copyable ids around.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A single item, identified by its index in the item universe.
///
/// The identifier is dense: a database over `n` items uses ids
/// `0..n`. This makes per-item side tables (tid-sets, attribute columns)
/// simple arrays.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Item(pub u32);

impl Item {
    /// Creates an item from a raw id.
    #[inline]
    pub const fn new(id: u32) -> Self {
        Item(id)
    }

    /// The raw numeric id of this item.
    #[inline]
    pub const fn id(self) -> u32 {
        self.0
    }

    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Item {
    #[inline]
    fn from(id: u32) -> Self {
        Item(id)
    }
}

impl From<Item> for u32 {
    #[inline]
    fn from(item: Item) -> Self {
        item.0
    }
}

/// A dense membership bitmap over item ids: an O(1) lookup with no
/// hashing, for per-item flags such as the witness class `L1⁺`. Ids past
/// the highest inserted one read as absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemMask {
    words: Vec<u64>,
}

impl ItemMask {
    /// `true` iff `item` is in the mask.
    #[inline]
    pub fn contains(&self, item: Item) -> bool {
        let i = item.index();
        self.words
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }
}

impl FromIterator<Item> for ItemMask {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        let mut words: Vec<u64> = Vec::new();
        for item in iter {
            let i = item.index();
            if words.len() <= i / 64 {
                words.resize(i / 64 + 1, 0);
            }
            words[i / 64] |= 1 << (i % 64);
        }
        ItemMask { words }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_roundtrips_through_u32() {
        let item = Item::new(42);
        assert_eq!(item.id(), 42);
        assert_eq!(u32::from(item), 42);
        assert_eq!(Item::from(42u32), item);
        assert_eq!(item.index(), 42usize);
    }

    #[test]
    fn item_orders_by_id() {
        assert!(Item::new(1) < Item::new(2));
        assert_eq!(Item::new(7), Item::new(7));
    }

    #[test]
    fn item_mask_membership() {
        let mask: ItemMask = [Item(0), Item(63), Item(64), Item(130)]
            .into_iter()
            .collect();
        for id in 0..200 {
            assert_eq!(
                mask.contains(Item(id)),
                [0, 63, 64, 130].contains(&id),
                "i{id}"
            );
        }
        assert!(!ItemMask::default().contains(Item(0)));
    }

    #[test]
    fn item_displays_with_prefix() {
        assert_eq!(Item::new(3).to_string(), "i3");
    }
}
