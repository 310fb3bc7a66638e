//! # ccs-itemset — itemset kernel for constrained correlation mining
//!
//! The substrate every miner in this workspace stands on:
//!
//! * [`Item`] / [`Itemset`] — dense item ids and immutable sorted itemsets
//!   with full set algebra and lattice helpers,
//! * [`TransactionDb`] — an in-memory horizontal basket database,
//! * [`TidSet`] / [`VerticalIndex`] — per-item transaction bitmaps,
//! * [`counting`] — pluggable minterm (contingency-cell) counting with work
//!   accounting, in both paper-faithful horizontal-scan and fast vertical
//!   flavours,
//! * [`fptree`] — pattern-growth counting over a compressed prefix
//!   tree: conditional projections memoized per batch, for dense
//!   low-cardinality databases where tid-set intersection pays per
//!   transaction instead of per distinct profile,
//! * [`candidate`] — Apriori-style level-wise candidate generation,
//!   including the canonical witness join required by the
//!   constraint-pushing algorithms BMS++ / BMS** and allocation-free
//!   subset probes.

#![warn(missing_docs)]

pub mod candidate;
pub mod counting;
pub mod database;
pub mod fptree;
pub mod item;
pub mod itemset;
pub mod tidset;
pub mod vertical;

pub use counting::{
    BatchInterrupted, CountProbe, CountingStats, HorizontalCounter, MintermCounter, NoProbe,
    VerticalCounter,
};
pub use database::TransactionDb;
pub use fptree::{DegradationRung, FpTree, FpTreeCounter};
pub use item::{Item, ItemMask};
pub use itemset::Itemset;
pub use tidset::TidSet;
pub use vertical::VerticalIndex;
