//! Differential acceptance for the non-χ² measures: every algorithm ×
//! every counting strategy must agree with a brute-force reference that
//! recomputes all-confidence and bond *from scratch* — raw transaction
//! scans, no `ContingencyTable`, no `Engine` — and derives both answer
//! semantics literally from the definitions.
//!
//! The χ² path is covered by the pinned goldens (`kernel_equivalence`)
//! and by `fuzz_differential`; this suite is the downward-closed
//! counterpart those can't see.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::{HashMap, HashSet};

use ccs::prelude::*;
use common::{sorted, ALL_ALGORITHMS};

const STRATEGIES: [CountingStrategy; 3] = [
    CountingStrategy::Horizontal,
    CountingStrategy::Vertical,
    CountingStrategy::FpTree,
];

#[derive(Clone, Copy)]
struct Flags {
    in_space: bool, // correlated ∧ CT-supported
    valid: bool,
}

/// Recomputes one set's flags from raw transaction scans: minterm
/// counts by masking each transaction against the set, the ratio
/// statistic from the all-present cell, the marginals, and the union.
fn flags_from_scratch(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    items: &[u32],
) -> Flags {
    let k = items.len();
    let mut cells = vec![0u64; 1 << k];
    for txn in db.transactions() {
        let present: HashSet<u32> = txn.iter().map(|i| i.id()).collect();
        let mut mask = 0usize;
        for (bit, &item) in items.iter().enumerate() {
            if present.contains(&item) {
                mask |= 1 << bit;
            }
        }
        cells[mask] += 1;
    }
    let all = cells[(1 << k) - 1];
    let statistic = match q.params.measure {
        Measure::AllConfidence => {
            let max_marginal = (0..k)
                .map(|bit| {
                    cells
                        .iter()
                        .enumerate()
                        .filter(|(m, _)| m & (1 << bit) != 0)
                        .map(|(_, &c)| c)
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            if max_marginal == 0 {
                0.0
            } else {
                all as f64 / max_marginal as f64
            }
        }
        Measure::Bond => {
            let union = db.len() as u64 - cells[0];
            if union == 0 {
                0.0
            } else {
                all as f64 / union as f64
            }
        }
        Measure::Chi2 => unreachable!("this suite covers the ratio measures"),
    };
    let correlated = statistic >= q.params.confidence;
    let s_abs = q.params.support_abs(db.len());
    let meeting = cells.iter().filter(|&&c| c >= s_abs).count();
    let ct_supported = meeting as f64 + 1e-9 >= q.params.ct_fraction * cells.len() as f64;
    let set = Itemset::from_ids(items.iter().copied());
    Flags {
        in_space: correlated && ct_supported,
        valid: q.constraints.satisfied(&set, attrs),
    }
}

/// Brute-force reference miner: enumerates every itemset over the item
/// basis up to `max_level`, flags each from scratch, and derives the
/// answer set by explicit minimality over proper subsets (the
/// definitions of §3; mirrors `run_naive`'s epilogue but shares no code
/// with the engine).
fn reference_answers(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    semantics: Semantics,
) -> Vec<Itemset> {
    let threshold = q.params.item_support_abs(db.len());
    let mut supports = vec![0u64; db.n_items() as usize];
    for txn in db.transactions() {
        for item in txn {
            supports[item.index()] += 1;
        }
    }
    let basis: Vec<u32> = (0..db.n_items())
        .filter(|&i| supports[i as usize] >= threshold)
        .collect();
    let top = q.params.max_level.min(basis.len());

    let mut flags: HashMap<Vec<u32>, Flags> = HashMap::new();
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if (2..=top).contains(&prefix.len()) {
            flags.insert(prefix.clone(), flags_from_scratch(db, attrs, q, &prefix));
        }
        if prefix.len() < top {
            let start = prefix.last().map_or(0, |&l| l + 1);
            for &item in basis.iter().filter(|&&i| i >= start) {
                let mut next = prefix.clone();
                next.push(item);
                stack.push(next);
            }
        }
    }

    let in_space = |f: &Flags| match semantics {
        Semantics::ValidMin => f.in_space,
        Semantics::MinValid => f.in_space && f.valid,
    };
    let mut answers: Vec<Itemset> = Vec::new();
    for (items, f) in &flags {
        if !in_space(f) || (semantics == Semantics::ValidMin && !f.valid) {
            continue;
        }
        let minimal = proper_subsets(items)
            .into_iter()
            .all(|s| flags.get(&s).is_none_or(|sf| !in_space(sf)));
        if minimal {
            answers.push(Itemset::from_ids(items.iter().copied()));
        }
    }
    answers.sort_unstable();
    answers
}

/// All proper subsets of size ≥ 2, each sorted ascending like its input.
fn proper_subsets(items: &[u32]) -> Vec<Vec<u32>> {
    let k = items.len();
    (1usize..(1 << k) - 1)
        .filter(|m| m.count_ones() >= 2)
        .map(|m| {
            (0..k)
                .filter(|bit| m & (1 << bit) != 0)
                .map(|bit| items[bit])
                .collect()
        })
        .collect()
}

/// A skewed database with planted modules of different tightness: a
/// perfectly bonded pair, a high-but-imperfect triple, and a pair that
/// co-occurs too rarely to pass — so thresholds separate real verdicts,
/// not just all-or-nothing ones.
fn graded_db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..120u32 {
        let mut t = Vec::new();
        if i % 2 == 0 {
            t.extend([0, 1]); // bond 1.0, all-confidence 1.0
        }
        if i % 3 == 0 {
            t.extend([2, 3, 4]); // tight triple…
        }
        if i % 12 == 0 {
            t.push(2); // …with item 2 also occurring alone
        }
        if i % 4 == 0 {
            t.push(5);
        }
        if i % 6 == 0 {
            t.push(6); // {5,6} overlap on every 12th basket only
        }
        if i % 5 == 0 {
            t.push(7);
        }
        txns.push(t);
    }
    TransactionDb::from_ids(8, txns)
}

fn semantics_of(algorithm: Algorithm) -> Semantics {
    match algorithm {
        Algorithm::BmsPlus | Algorithm::BmsPlusPlus | Algorithm::Naive => Semantics::ValidMin,
        Algorithm::BmsStar | Algorithm::BmsStarStar | Algorithm::NaiveMinValid => {
            Semantics::MinValid
        }
    }
}

fn check_matrix(db: &TransactionDb, attrs: &AttributeTable, q: &CorrelationQuery) {
    let reference: HashMap<Semantics, Vec<Itemset>> = [Semantics::ValidMin, Semantics::MinValid]
        .into_iter()
        .map(|s| (s, reference_answers(db, attrs, q, s)))
        .collect();
    assert!(
        !reference[&Semantics::MinValid].is_empty() || !reference[&Semantics::ValidMin].is_empty(),
        "vacuous fixture: {} threshold {} found nothing",
        q.params.measure,
        q.params.confidence
    );
    for algorithm in ALL_ALGORITHMS {
        for strategy in STRATEGIES {
            let outcome = MiningSession::new(db, attrs)
                .mine(q, &MineRequest::new(algorithm).strategy(strategy))
                .unwrap();
            assert_eq!(
                sorted(&outcome.result.answers),
                reference[&semantics_of(algorithm)],
                "{algorithm:?} × {strategy} disagrees with the from-scratch \
                 reference under {} threshold {}",
                q.params.measure,
                q.params.confidence
            );
        }
    }
}

fn query(measure: Measure, threshold: f64, constraints: ConstraintSet) -> CorrelationQuery {
    CorrelationQuery {
        params: MiningParams {
            measure,
            confidence: threshold,
            support_fraction: 0.1,
            max_level: 4,
            ..MiningParams::paper()
        },
        constraints,
    }
}

#[test]
fn all_confidence_matrix_matches_brute_force() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    // The acceptance setting: all-confidence at 0.6, unconstrained.
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.6, ConstraintSet::new()),
    );
    // A looser cutoff flips more pairs into the space.
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.3, ConstraintSet::new()),
    );
}

#[test]
fn bond_matrix_matches_brute_force() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.1, ConstraintSet::new()),
    );
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.5, ConstraintSet::new()),
    );
}

#[test]
fn constrained_downward_queries_agree() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    // Mixed constraints split the semantics: anti-monotone max ≤ plus
    // monotone sum ≥, so BMS++ pushes, BMS*/BMS** sweep a genuine
    // phase 2, and VALID_MIN ≠ MIN_VALID.
    let mixed = ConstraintSet::new()
        .and(Constraint::max_le("price", 6.0))
        .and(Constraint::sum_ge("price", 3.0));
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.6, mixed.clone()),
    );
    check_matrix(&db, &attrs, &query(Measure::Bond, 0.2, mixed));
}

#[test]
fn xor_db_stays_pairwise_under_downward_measures() {
    // The XOR-planted fixture is the hard case for χ² (pairs look
    // independent, triples are dependent); under a downward measure the
    // minimal answers are pairs by theorem, and the matrix must agree
    // on exactly which ones.
    let db = common::db();
    let attrs = common::attrs();
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.4, ConstraintSet::new()),
    );
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.15, ConstraintSet::new()),
    );
    for algorithm in ALL_ALGORITHMS {
        let q = query(Measure::AllConfidence, 0.4, ConstraintSet::new());
        let outcome = MiningSession::new(&db, &attrs)
            .mine(&q, &MineRequest::new(algorithm))
            .unwrap();
        for set in &outcome.result.answers {
            assert_eq!(set.len(), 2, "{algorithm:?} returned non-pair {set}");
        }
    }
}
