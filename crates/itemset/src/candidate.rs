//! Level-wise candidate generation for Apriori-style lattice sweeps.
//!
//! Algorithm BMS and its constrained variants walk the itemset lattice
//! bottom-up. Each level's candidates are derived from the previous level's
//! surviving sets. Three generators are provided:
//!
//! * [`apriori_gen`] — the classical `F_{k-1} ⋈ F_{k-1}` join followed by
//!   the all-subsets prune. Correct when *every* `(k-1)`-subset of a
//!   candidate is required to be in the previous level (Algorithm BMS,
//!   BMS+, BMS* phase 1). The two join parents are members by
//!   construction, so only the other `k-2` subsets are probed.
//! * [`witness_join`] — the candidate rule of BMS++ and BMS** phase 1
//!   (modification II of §3.1): a `k`-set is a candidate when every
//!   `(k-1)`-subset that contains a witness (an `L1⁺` item) is in the
//!   previous level. Subsets that miss `L1⁺` are unconstrained, so a
//!   candidate may have subsets that were never candidates themselves,
//!   which breaks the symmetric join. The join instead extends one
//!   *canonical base* per candidate, so each candidate is built once.
//! * [`extend_gen`] — extension of each previous-level set by one item from
//!   a given universe, deduplicated, followed by an arbitrary predicate
//!   (the BMS* and BMS** phase-2 sweeps).
//!
//! Every `(k-1)`-subset probe goes through a [`SubsetProbe`]: the subset
//! is written into one reused scratch buffer and looked up as a slice
//! (`Itemset: Borrow<[Item]>`), so probing allocates nothing. An
//! `Itemset` is allocated only for a candidate that is kept (for
//! [`extend_gen`], for each distinct extension its memo records).
//!
//! # The canonical witness join
//!
//! Let `W` be the witness mask and `C` a candidate with `w(C)` witnesses.
//! A subset `C∖{y}` is *required* iff it contains a witness, i.e. unless
//! `w(C) = 1` and `y` is that witness. The canonical base of `C` is:
//!
//! * `w(C) ≥ 2`: `C∖{max C}` — every subset is required, so this is the
//!   Apriori prefix;
//! * `w(C) = 1`, witness `w`: `C∖{x}` with `x = max(C∖{w})` — the base
//!   keeps the witness, so it is required and must be in the level;
//! * `w(C) = 0`: `C∖{x}` with `x` the largest item whose removal leaves a
//!   level member (nothing is required; `C` only needs one base).
//!
//! Read from the base `B`, an extension `x` must lie above a bound:
//! `last(B)`, except that when `B` has exactly one witness `w` and
//! `x ∉ W` the bound is `max(B∖{w})`. When the subset that drops
//! `last(B)` is required, it is a later sibling of `B` in sorted order
//! (same prefix, larger last item), so those `x` are read off the sibling
//! run as in the Apriori join and that probe is already answered. The
//! rest — non-witness extensions of a base whose lone witness is its last
//! item — come from the sorted universe above the bound, found with
//! `partition_point`. Only the required subsets below `x` are probed.
//! A witness-free base (which BMS++ never produces: its levels grow from
//! witness-holding pairs) extends by non-witnesses only, and probes the
//! subsets above `x`, which must be *absent* for `B` to be canonical.
//! Each candidate has exactly one canonical base and each base emits a
//! given extension once, so each candidate is emitted exactly once and no
//! deduplication set is needed. The rule needs the canonical base's
//! extension item to be reachable: every item of the previous level must
//! be in the universe (asserted in debug builds).

use std::collections::{HashMap, HashSet};

use crate::item::{Item, ItemMask};
use crate::itemset::Itemset;

/// Reused scratch for allocation-free `(k-1)`-subset membership probes.
#[derive(Debug, Default)]
pub struct SubsetProbe {
    buf: Vec<Item>,
}

impl SubsetProbe {
    /// An empty probe; its buffer grows to the largest subset probed.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff `items` without its item at position `drop` is a member
    /// of `level`. `items` must be sorted and duplicate-free.
    pub fn contains_without(
        &mut self,
        level: &HashSet<Itemset>,
        items: &[Item],
        drop: usize,
    ) -> bool {
        self.buf.clear();
        self.buf.extend_from_slice(&items[..drop]);
        self.buf.extend_from_slice(&items[drop + 1..]);
        level.contains(self.buf.as_slice())
    }
}

/// Writes `items` with `x` inserted at position `pos` into `buf`.
fn write_extension(buf: &mut Vec<Item>, items: &[Item], pos: usize, x: Item) {
    buf.clear();
    buf.extend_from_slice(&items[..pos]);
    buf.push(x);
    buf.extend_from_slice(&items[pos..]);
}

/// Joins pairs of `k-1`-sets sharing their first `k-2` items, producing
/// `k`-sets in sorted order, and retains those for which `keep` returns
/// `true`. Each join is assembled in a scratch buffer; only kept sets
/// are allocated.
///
/// `prev` must contain sets of a single uniform size ≥ 1.
pub fn apriori_join<F>(prev: &HashSet<Itemset>, mut keep: F) -> Vec<Itemset>
where
    F: FnMut(&[Item]) -> bool,
{
    let mut sorted: Vec<&Itemset> = prev.iter().collect();
    sorted.sort_unstable();
    let mut joined: Vec<Item> = Vec::new();
    let mut out = Vec::new();
    for (i, a) in sorted.iter().enumerate() {
        let k1 = a.len();
        debug_assert!(k1 >= 1);
        for b in &sorted[i + 1..] {
            debug_assert_eq!(b.len(), k1, "apriori_join requires a uniform level");
            if a.prefix(k1 - 1) != b.prefix(k1 - 1) {
                break; // sorted order: once prefixes diverge they stay diverged
            }
            let Some(x) = b.last() else {
                continue;
            };
            write_extension(&mut joined, a.items(), k1, x);
            if keep(&joined) {
                out.push(Itemset::from_sorted_vec(joined.clone()));
            }
        }
    }
    out
}

/// Classical Apriori candidate generation: join + "all `(k-1)`-subsets
/// present" prune. Dropping either of the last two items of a join gives
/// one of its parents, so only the first `k-2` subsets are probed.
pub fn apriori_gen(prev: &HashSet<Itemset>) -> Vec<Itemset> {
    let mut probe = SubsetProbe::new();
    apriori_join(prev, |cand| {
        (0..cand.len().saturating_sub(2)).all(|drop| probe.contains_without(prev, cand, drop))
    })
}

/// The BMS++ / BMS** phase-1 candidate rule: every `k`-set `C` that
/// extends some member of `prev` by one item of `universe`, and whose
/// every `(k-1)`-subset containing an item of `witnesses` is in `prev`.
///
/// Each candidate is built once, from its canonical base (see the module
/// docs). `prev` must be a uniform level, and `universe` must be sorted
/// and hold every item of `prev`. Results are returned in sorted order
/// for determinism.
pub fn witness_join(
    prev: &HashSet<Itemset>,
    universe: &[Item],
    witnesses: &ItemMask,
) -> Vec<Itemset> {
    debug_assert!(
        universe.windows(2).all(|w| w[0] < w[1]),
        "universe must be strictly sorted"
    );
    let mut sorted: Vec<&Itemset> = prev.iter().collect();
    sorted.sort_unstable();
    let mut probe = SubsetProbe::new();
    let mut cand: Vec<Item> = Vec::new();
    let mut out = Vec::new();
    for (i, base) in sorted.iter().enumerate() {
        let items = base.items();
        debug_assert!(
            items.iter().all(|i| universe.binary_search(i).is_ok()),
            "witness_join: {base} has an item outside the universe"
        );
        let Some((&last, prefix)) = items.split_last() else {
            continue;
        };
        let mut found = items.iter().copied().filter(|&i| witnesses.contains(i));
        let first = found.next();
        let has_witness = first.is_some();
        let lone = first.filter(|_| found.next().is_none());
        if has_witness {
            // Extensions above `last(B)` whose subset dropping `last(B)`
            // is required: that subset is a later sibling of `B` (same
            // prefix, larger last item), so `x` is read off the sibling
            // run and that probe is already answered, as in the Apriori
            // join.
            let siblings = sorted[i + 1..]
                .iter()
                .take_while(|s| s.prefix(prefix.len()) == prefix);
            for sibling in siblings {
                debug_assert_eq!(
                    sibling.len(),
                    items.len(),
                    "witness_join requires a uniform level"
                );
                let Some(x) = sibling.last() else {
                    continue;
                };
                let x_witness = witnesses.contains(x);
                if lone == Some(last) && !x_witness {
                    continue; // `C∖{last(B)}` misses every witness: scanned below
                }
                write_extension(&mut cand, items, items.len(), x);
                // `C∖{y}` is required unless `y` is `C`'s only witness.
                let lone_in_cand = lone.filter(|_| !x_witness);
                if (0..prefix.len()).all(|drop| {
                    lone_in_cand == Some(cand[drop]) || probe.contains_without(prev, &cand, drop)
                }) {
                    out.push(Itemset::from_sorted_vec(cand.clone()));
                }
            }
        }
        if has_witness && lone != Some(last) {
            continue;
        }
        // The rest scan the universe above the bound: non-witness
        // extensions of a base whose lone witness is its last item (the
        // bound is `max(B∖{w})`), and every non-witness extension of a
        // witness-free base (no bound).
        let bound = if has_witness {
            prefix.last().copied()
        } else {
            None
        };
        let start = universe.partition_point(|&i| Some(i) <= bound);
        for &x in &universe[start..] {
            if witnesses.contains(x) {
                continue; // canonical base lies elsewhere
            }
            let Err(pos) = items.binary_search(&x) else {
                continue; // only a witness-free base can meet its own items
            };
            write_extension(&mut cand, items, pos, x);
            let keep = if has_witness {
                // Every item below `x` but the witness is a required drop.
                (0..pos).all(|drop| cand[drop] == last || probe.contains_without(prev, &cand, drop))
            } else {
                // No subset is required; `B` is canonical iff dropping any
                // larger item leaves a non-member.
                (pos + 1..cand.len()).all(|drop| !probe.contains_without(prev, &cand, drop))
            };
            if keep {
                out.push(Itemset::from_sorted_vec(cand.clone()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Extends every set in `prev` by one item drawn from `universe`,
/// deduplicates, and retains candidates for which `keep` returns `true`.
///
/// Each extension is assembled in a scratch buffer. Every distinct one is
/// judged once: kept or rejected, it enters a memo (its one allocation),
/// so `keep` never re-runs on a set reached from several bases.
/// Results are returned in sorted order for determinism.
pub fn extend_gen<F>(prev: &HashSet<Itemset>, universe: &[Item], mut keep: F) -> Vec<Itemset>
where
    F: FnMut(&[Item]) -> bool,
{
    let mut judged: HashMap<Itemset, bool> = HashMap::new();
    let mut cand: Vec<Item> = Vec::new();
    for base in prev {
        let items = base.items();
        for &item in universe {
            let Err(pos) = items.binary_search(&item) else {
                continue;
            };
            write_extension(&mut cand, items, pos, item);
            if !judged.contains_key(cand.as_slice()) {
                let kept = keep(&cand);
                judged.insert(Itemset::from_sorted_vec(cand.clone()), kept);
            }
        }
    }
    let mut out: Vec<Itemset> = judged
        .into_iter()
        .filter_map(|(set, kept)| kept.then_some(set))
        .collect();
    out.sort_unstable();
    out
}

/// All unordered pairs `{a, b}` with `a ∈ left`, `b ∈ left ∪ right`,
/// `a ≠ b` — the `CAND₂` rule of BMS++ (`i₁ ∈ L1⁺`, `i₂ ∈ L1⁺ ∪ L1⁻`).
///
/// Results are sorted and duplicate-free.
pub fn pairs_from(left: &[Item], right: &[Item]) -> Vec<Itemset> {
    let mut seen: HashSet<Itemset> = HashSet::new();
    for &a in left {
        for &b in left.iter().chain(right.iter()) {
            if a != b {
                seen.insert(Itemset::from_items([a, b]));
            }
        }
    }
    let mut out: Vec<Itemset> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// All unordered pairs over a single item slice.
pub fn all_pairs(items: &[Item]) -> Vec<Itemset> {
    let mut out = Vec::with_capacity(items.len() * items.len().saturating_sub(1) / 2);
    for (i, &a) in items.iter().enumerate() {
        for &b in &items[i + 1..] {
            out.push(Itemset::from_items([a, b]));
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn level(sets: &[&[u32]]) -> HashSet<Itemset> {
        sets.iter().map(|s| set(s)).collect()
    }

    #[test]
    fn apriori_gen_classic_example() {
        // L3 = {123, 124, 134, 135, 234}; join gives 1234 (kept: all subsets
        // present) and 1345 (pruned: 145 missing).
        let prev = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        let cands = apriori_gen(&prev);
        assert_eq!(cands, vec![set(&[1, 2, 3, 4])]);
    }

    #[test]
    fn apriori_join_without_prune_keeps_both() {
        let prev = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        let mut cands = apriori_join(&prev, |_| true);
        cands.sort_unstable();
        assert_eq!(cands, vec![set(&[1, 2, 3, 4]), set(&[1, 3, 4, 5])]);
    }

    #[test]
    fn apriori_gen_from_singletons() {
        let prev = level(&[&[1], &[2], &[3]]);
        let cands = apriori_gen(&prev);
        assert_eq!(cands, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
    }

    #[test]
    fn apriori_gen_empty_level() {
        assert!(apriori_gen(&HashSet::new()).is_empty());
    }

    #[test]
    fn extend_gen_reaches_asymmetric_candidates() {
        // prev = {12}; universe = {3}. Candidate 123 must be generated even
        // though neither 13 nor 23 is in prev.
        let prev = level(&[&[1, 2]]);
        let cands = extend_gen(&prev, &[Item(3)], |_| true);
        assert_eq!(cands, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn extend_gen_dedups_and_filters() {
        let prev = level(&[&[1, 2], &[1, 3]]);
        // Both bases can produce {1,2,3}; it must appear once.
        let cands = extend_gen(&prev, &[Item(2), Item(3), Item(4)], |_| true);
        assert_eq!(
            cands,
            vec![set(&[1, 2, 3]), set(&[1, 2, 4]), set(&[1, 3, 4])]
        );
        let none = extend_gen(&prev, &[Item(4)], |c| !c.contains(&Item(4)));
        assert!(none.is_empty());
    }

    #[test]
    fn extend_gen_judges_each_distinct_extension_once() {
        // {1,2,3} is reachable from all three bases and is rejected; it
        // must still be judged only once.
        let prev = level(&[&[1, 2], &[1, 3], &[2, 3]]);
        let mut judged: Vec<Itemset> = Vec::new();
        let cands = extend_gen(&prev, &[Item(1), Item(2), Item(3)], |c| {
            judged.push(Itemset::from_sorted_vec(c.to_vec()));
            false
        });
        assert!(cands.is_empty());
        assert_eq!(judged, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn witness_join_with_every_item_a_witness_is_apriori_gen() {
        let prev = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        let universe: Vec<Item> = (1..=5).map(Item::new).collect();
        let all: ItemMask = universe.iter().copied().collect();
        assert_eq!(witness_join(&prev, &universe, &all), apriori_gen(&prev));
    }

    #[test]
    fn pairs_from_is_left_anchored() {
        let left = [Item(1)];
        let right = [Item(2), Item(3)];
        let pairs = pairs_from(&left, &right);
        assert_eq!(pairs, vec![set(&[1, 2]), set(&[1, 3])]);
        // {2,3} must NOT appear: neither endpoint is in `left`.
    }

    #[test]
    fn pairs_from_both_sides_in_left() {
        let left = [Item(1), Item(2)];
        let pairs = pairs_from(&left, &[]);
        assert_eq!(pairs, vec![set(&[1, 2])]);
    }

    #[test]
    fn all_pairs_counts() {
        let items: Vec<Item> = (0..5).map(Item::new).collect();
        assert_eq!(all_pairs(&items).len(), 10);
        assert!(all_pairs(&items[..1]).is_empty());
    }
}
