//! Differential property tests for candidate generation: the canonical
//! witness join must produce exactly the candidates of the rule it
//! replaced — single-item extension of every level member followed by
//! the witness-subset predicate — and both must agree with a brute-force
//! enumeration of the lattice level. `apriori_gen`, with its reduced
//! probe set, must agree with the all-subsets rule the same way.

#![allow(clippy::unwrap_used)]

use std::collections::HashSet;

use proptest::prelude::*;

use ccs_itemset::candidate::{apriori_gen, extend_gen, witness_join};
use ccs_itemset::{Item, ItemMask, Itemset};

/// Largest universe the strategies draw from.
const MAX_ITEMS: u32 = 12;

/// One generator input: a uniform level of `k1`-sets, a sorted universe
/// holding every level item, and a witness bitmask over item ids.
#[derive(Debug)]
struct Case {
    level: HashSet<Itemset>,
    universe: Vec<Item>,
    witness_bits: u16,
}

impl Case {
    fn witnesses(&self) -> ItemMask {
        (0..MAX_ITEMS)
            .filter(|b| self.witness_bits >> b & 1 == 1)
            .map(Item::new)
            .collect()
    }

    fn is_witness(&self, item: Item) -> bool {
        self.witness_bits >> item.id() & 1 == 1
    }
}

/// Witness masks: empty, full, a single item (every witness-bearing set
/// then has exactly one witness), sparse, and uniformly random.
fn witness_bits() -> impl Strategy<Value = u16> {
    prop_oneof![
        Just(0u16),
        Just(u16::MAX),
        (0u32..MAX_ITEMS).prop_map(|b| 1u16 << b),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| a & b),
        any::<u16>(),
    ]
}

/// Levels of `k1 ∈ 2..=5` sets over `n ∈ 4..=12` items. Small `n` makes
/// the level dense enough that most subsets are members; the universe is
/// the level's items plus a random extra subset of `0..n`.
fn case() -> impl Strategy<Value = Case> {
    (
        4u32..=MAX_ITEMS,
        2usize..=5,
        proptest::collection::vec(proptest::collection::vec(0u32..MAX_ITEMS, 16), 0..48),
        any::<u16>(),
        witness_bits(),
    )
        .prop_map(|(n, k1, raws, extra, witness_bits)| {
            let mut level = HashSet::new();
            for raw in raws {
                let mut picked: Vec<u32> = Vec::with_capacity(k1);
                for id in raw.into_iter().map(|v| v % n) {
                    if picked.len() < k1 && !picked.contains(&id) {
                        picked.push(id);
                    }
                }
                if picked.len() == k1 {
                    level.insert(Itemset::from_ids(picked));
                }
            }
            let mut universe: Vec<Item> = (0..n)
                .filter(|b| extra >> b & 1 == 1)
                .map(Item::new)
                .chain(level.iter().flat_map(|s| s.iter()))
                .collect();
            universe.sort_unstable();
            universe.dedup();
            Case {
                level,
                universe,
                witness_bits,
            }
        })
}

/// The replaced rule, kept as the reference: extend every member by every
/// universe item, then keep a candidate iff each `(k-1)`-subset that
/// holds a witness is a level member.
fn extension_rule(case: &Case) -> Vec<Itemset> {
    extend_gen(&case.level, &case.universe, |cand| {
        Itemset::from_sorted_vec(cand.to_vec())
            .subsets_dropping_one()
            .all(|s| !s.iter().any(|i| case.is_witness(i)) || case.level.contains(&s))
    })
}

/// Every `len`-subset of `universe`, in sorted order.
fn subsets_of_size(universe: &[Item], len: usize) -> Vec<Itemset> {
    let mut out: Vec<Itemset> = (0u32..1 << universe.len())
        .filter(|mask| mask.count_ones() as usize == len)
        .map(|mask| {
            Itemset::from_items(
                universe
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| mask >> b & 1 == 1)
                    .map(|(_, &i)| i),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// Brute force over the whole next level: a candidate has at least one
/// member subset and every witness-holding subset is a member.
fn brute_force(case: &Case) -> Vec<Itemset> {
    let Some(k1) = case.level.iter().next().map(Itemset::len) else {
        return Vec::new();
    };
    subsets_of_size(&case.universe, k1 + 1)
        .into_iter()
        .filter(|cand| {
            let subs: Vec<Itemset> = cand.subsets_dropping_one().collect();
            subs.iter().any(|s| case.level.contains(s))
                && subs
                    .iter()
                    .all(|s| !s.iter().any(|i| case.is_witness(i)) || case.level.contains(s))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn witness_join_matches_the_extension_rule(case in case()) {
        let joined = witness_join(&case.level, &case.universe, &case.witnesses());
        let reference = extension_rule(&case);
        prop_assert_eq!(&joined, &reference, "case {:?}", case);
        prop_assert_eq!(&joined, &brute_force(&case), "case {:?}", case);
    }

    #[test]
    fn apriori_gen_matches_the_all_subsets_rule(case in case()) {
        let items: Vec<Item> = {
            let mut v: Vec<Item> = case.level.iter().flat_map(|s| s.iter()).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let expected: Vec<Itemset> = match case.level.iter().next() {
            None => Vec::new(),
            Some(member) => subsets_of_size(&items, member.len() + 1)
                .into_iter()
                .filter(|cand| cand.subsets_dropping_one().all(|s| case.level.contains(&s)))
                .collect(),
        };
        prop_assert_eq!(apriori_gen(&case.level), expected, "case {:?}", case);
    }
}

/// Hand-picked bases with one witness and with several. With `5` the only
/// witness, `{1,4,5}` is built from `{1,5}` extended by `4`, its largest
/// non-witness, although `{1,4}` holds no witness and is not in the
/// level; the witness-free base `{2,3}` yields `{1,2,3}` and `{2,3,4}`.
#[test]
fn single_witness_candidates_come_from_their_canonical_base() {
    let level: HashSet<Itemset> = [[1u32, 5], [4, 5], [2, 3], [2, 5], [3, 5]]
        .into_iter()
        .map(Itemset::from_ids)
        .collect();
    let universe: Vec<Item> = [1u32, 2, 3, 4, 5].into_iter().map(Item::new).collect();
    let witnesses: ItemMask = [Item(5)].into_iter().collect();
    let got = witness_join(&level, &universe, &witnesses);
    let expected: Vec<Itemset> = [
        vec![1u32, 2, 3],
        vec![1, 2, 5],
        vec![1, 3, 5],
        vec![1, 4, 5],
        vec![2, 3, 4],
        vec![2, 3, 5],
        vec![2, 4, 5],
        vec![3, 4, 5],
    ]
    .into_iter()
    .map(Itemset::from_ids)
    .collect();
    assert_eq!(got, expected);

    // With 2 and 3 also witnesses, {2,3,5} needs all three subsets, and
    // {1,2,5} now needs {1,2} too, which is absent; {1,4,5} still needs
    // only its two witness-holding subsets.
    let several: ItemMask = [Item(2), Item(3), Item(5)].into_iter().collect();
    let got = witness_join(&level, &universe, &several);
    let expected: Vec<Itemset> = [vec![1u32, 4, 5], vec![2, 3, 5]]
        .into_iter()
        .map(Itemset::from_ids)
        .collect();
    assert_eq!(got, expected);
}
