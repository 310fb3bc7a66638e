//! Differential proptests for the blocked tid-set substrate.
//!
//! The tid-set kernels are written as remainder-free 8×u64 superblock
//! loops with per-superblock population hints (DESIGN.md §6.3); every
//! one of them must remain bit-identical to the obvious scalar model —
//! a sorted set of tids — across capacities that exercise partial tail
//! blocks (capacity ∤ 64), partial tail superblocks (capacity ∤ 512),
//! and multi-superblock bitmaps.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use ccs_itemset::TidSet;

/// Capacities biased toward the layout's seams: block boundaries (64),
/// superblock boundaries (512), and their immediate neighbourhoods,
/// alongside a general multi-superblock range.
fn capacity_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..8,       // sub-word
        60usize..70,     // first block boundary
        120usize..132,   // interior block boundary
        505usize..520,   // first superblock boundary
        1015usize..1040, // second superblock boundary
        1usize..1300,    // general
    ]
}

/// Raw tids over the whole capacity domain; the test clips them to the
/// drawn capacity (the vendored proptest stand-in has no
/// `prop_flat_map`, so strategies cannot depend on each other).
fn tids_strategy() -> impl Strategy<Value = BTreeSet<usize>> {
    proptest::collection::btree_set(0usize..1300, 0..=128)
}

fn clip(raw: &BTreeSet<usize>, capacity: usize) -> BTreeSet<usize> {
    raw.iter().copied().filter(|&t| t < capacity).collect()
}

fn collect(set: &TidSet) -> BTreeSet<usize> {
    set.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn blocked_kernels_match_the_scalar_model(
        (cap, raw_a, raw_b, raw_c, limit) in (
            capacity_strategy(),
            tids_strategy(),
            tids_strategy(),
            tids_strategy(),
            0usize..1302,
        )
    ) {
        let (ma, mb, mc) = (clip(&raw_a, cap), clip(&raw_b, cap), clip(&raw_c, cap));
        let a = TidSet::from_ids(cap, ma.iter().copied());
        let b = TidSet::from_ids(cap, mb.iter().copied());
        let c = TidSet::from_ids(cap, mc.iter().copied());

        // Construction round-trips through the model, and the hint-summed
        // count agrees with it.
        prop_assert_eq!(collect(&a), ma.clone());
        prop_assert_eq!(a.count(), ma.len());
        prop_assert_eq!(TidSet::full(cap).count(), cap);

        // Fused counting kernels.
        let inter: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(a.intersection_count(&b), inter.len());
        let triple = ma.iter().filter(|t| mb.contains(t) && mc.contains(t)).count();
        prop_assert_eq!(a.triple_intersection_count(&b, &c), triple);
        let without = ma.len() - inter.len();
        prop_assert_eq!(a.count_split(&b), (inter.len(), without));

        // The limited kernel: exact below the limit, saturating (but
        // never over-counting) at or above it, and exact whenever the
        // limit is a true upper bound.
        let limited = a.intersection_count_limited(&b, limit);
        prop_assert!(limited <= inter.len());
        if limited < limit {
            prop_assert_eq!(limited, inter.len());
        } else {
            prop_assert!(limited >= limit);
        }
        prop_assert_eq!(a.intersection_count_limited(&b, ma.len()), inter.len());

        // The fused split, into deliberately dirty scratch so stale
        // superblocks must be overwritten (or zero-filled on the empty-
        // source fast path).
        let mut with = TidSet::full(cap);
        let mut without_set = TidSet::full(cap);
        a.split_into(&b, &mut with, &mut without_set);
        let model_without: BTreeSet<usize> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(collect(&with), inter.clone());
        prop_assert_eq!(collect(&without_set), model_without.clone());
        prop_assert_eq!(with.count(), inter.len());
        prop_assert_eq!(without_set.count(), model_without.len());

        // In-place bulk mutators keep contents and hints consistent.
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(collect(&u), ma.union(&mb).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(u.count(), ma.union(&mb).count());
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(collect(&i), inter);
        let mut d = a.clone();
        d.subtract(&b);
        prop_assert_eq!(collect(&d), model_without);
    }
}
