//! Differential property test for the counting substrates.
//!
//! Every counting strategy — horizontal, vertical (tid-set
//! intersection), fp-tree (pattern growth over a compressed prefix
//! tree) — and every batch path (the default per-candidate loop, the
//! one-scan-per-level horizontal batch, the prefix-sharing vertical
//! batch, the projection-memoized fp-tree batch) must produce
//! bit-identical minterm counts on arbitrary databases, for candidate
//! sets up to k = 6. This is the invariant that lets the miners pick a strategy
//! freely.
//!
//! `CCS_TEST_STRATEGY` (the CI forced-strategy job) narrows the sweep
//! to one strategy's blocks, always against the horizontal reference.

use proptest::prelude::*;

use ccs::itemset::{
    FpTree, FpTreeCounter, HorizontalCounter, Itemset, MintermCounter, NoProbe, TransactionDb,
    VerticalCounter,
};

const N_ITEMS: u32 = 8;

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..7), 0..80)
        .prop_map(|txns| TransactionDb::from_ids(N_ITEMS, txns))
}

/// Up to a dozen candidate sets of size 1..=6 over a small alphabet, so
/// shared (k−1)-prefixes — the vertical batch's equivalence classes —
/// occur often, alongside singletons and mixed sizes in one level.
fn sets_strategy() -> impl Strategy<Value = Vec<Itemset>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..N_ITEMS, 1..=6usize),
        1..12,
    )
    .prop_map(|sets| sets.into_iter().map(Itemset::from_ids).collect())
}

/// `CCS_TEST_STRATEGY`, when set, runs only the named strategy's blocks
/// (still against the horizontal reference) — the forced focused pass
/// CI uses.
fn strategy_enabled(name: &str) -> bool {
    match std::env::var("CCS_TEST_STRATEGY") {
        Ok(forced) => forced == name,
        Err(_) => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_strategies_and_batch_paths_agree(
        (db, sets) in (db_strategy(), sets_strategy())
    ) {
        // Reference: the paper-faithful horizontal scan, one set at a time.
        let mut reference = HorizontalCounter::new(&db);
        let expected: Vec<Vec<u64>> =
            sets.iter().map(|s| reference.minterm_counts(s)).collect();

        // Horizontal batch: one scan for the whole level.
        if strategy_enabled("horizontal") {
            let mut horizontal = HorizontalCounter::new(&db);
            prop_assert_eq!(&horizontal.minterm_counts_batch(&sets), &expected);
        }

        // Vertical, per candidate and prefix-sharing batch.
        if strategy_enabled("vertical") {
            let mut vertical = VerticalCounter::new(&db);
            let vertical_singles: Vec<Vec<u64>> =
                sets.iter().map(|s| vertical.minterm_counts(s)).collect();
            prop_assert_eq!(&vertical_singles, &expected);
            prop_assert_eq!(&vertical.minterm_counts_batch(&sets), &expected);
        }

        // FP-tree: pattern growth over the compressed prefix tree —
        // per candidate, projection-memoized batch, and the guarded
        // path under an inert probe, plus the counter wrapper at its
        // top rung.
        if strategy_enabled("fp-tree") {
            let tree = FpTree::build(&db);
            let fp_singles: Vec<Vec<u64>> =
                sets.iter().map(|s| tree.minterm_counts(s)).collect();
            prop_assert_eq!(&fp_singles, &expected);
            prop_assert_eq!(&tree.minterm_counts_batch(&sets), &expected);
            let guarded = tree.minterm_counts_batch_guarded(&sets, &NoProbe);
            prop_assert_eq!(&guarded.expect("NoProbe never interrupts"), &expected);

            let mut fp_counter = FpTreeCounter::new(&db);
            prop_assert_eq!(&fp_counter.minterm_counts_batch(&sets), &expected);
        }
    }
}
