//! Criterion microbenchmarks for the substrate crates: tid-set algebra,
//! contingency-table counting (horizontal vs vertical — the DESIGN.md §5
//! counting ablation), chi-squared machinery, and candidate generation.

use std::collections::HashSet;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ccs_bench::DataMethod;
use ccs_datagen::{generate_quest, QuestParams};
use ccs_itemset::{
    candidate, HorizontalCounter, Item, ItemMask, Itemset, MintermCounter, TidSet, VerticalCounter,
};
use ccs_stats::{chi2_quantile, ContingencyTable};

/// A dense miner level: all `k`-subsets of consecutive `pool`-item
/// windows until `n` candidates exist — the shape `apriori_gen`
/// produces over a correlated item module, where every prefix class is
/// full and suffix items recur across members.
fn dense_level(n_items: u32, n: usize, k: usize, pool: u32) -> Vec<Itemset> {
    let mut sets: Vec<Itemset> = Vec::with_capacity(n);
    let mut base = 0u32;
    'outer: while sets.len() < n {
        assert!(
            base + pool <= n_items,
            "not enough items for {n} dense candidates"
        );
        for mask in 0u32..(1 << pool) {
            if mask.count_ones() as usize == k {
                sets.push(Itemset::from_ids(
                    (0..pool).filter(|b| mask >> b & 1 == 1).map(|b| base + b),
                ));
                if sets.len() == n {
                    break 'outer;
                }
            }
        }
        base += pool;
    }
    sets.sort_unstable();
    sets
}

/// A lattice-sparse-shaped `NOTSIG₃` level: the sets a BMS+ sweep over
/// an 80-item Quest database (mean basket 10, support 0.02, χ² at 90%)
/// keeps at level 3 because they are CT-supported but uncorrelated —
/// the level whose extension dominated BMS++ before the canonical join.
fn sparse_notsig3() -> (Vec<Item>, HashSet<Itemset>) {
    let db = generate_quest(&QuestParams::small(20_000, 80, 7));
    let items: Vec<Item> = (0..db.n_items()).map(Item::new).collect();
    let s_abs = (0.02 * db.len() as f64).ceil() as u64;
    let critical = chi2_quantile(0.9, 1);
    let mut counter = VerticalCounter::new(&db);
    let mut cands = candidate::all_pairs(&items);
    let mut notsig = HashSet::new();
    for _level in 2..=3 {
        let counts = counter.minterm_counts_batch(&cands);
        notsig = cands
            .into_iter()
            .zip(counts)
            .map(|(set, cells)| ContingencyTable::from_counts(set, cells))
            .filter(|t| t.is_ct_supported(s_abs, 0.25) && t.chi_squared() < critical)
            .map(ContingencyTable::into_itemset)
            .collect();
        cands = candidate::apriori_gen(&notsig);
    }
    (items, notsig)
}

fn bench_tidset(c: &mut Criterion) {
    let n = 100_000;
    let a = TidSet::from_ids(n, (0..n).step_by(3));
    let b = TidSet::from_ids(n, (0..n).step_by(5));
    c.bench_function("tidset/intersection_count_100k", |bench| {
        bench.iter(|| black_box(&a).intersection_count(black_box(&b)))
    });
    c.bench_function("tidset/split_by_100k", |bench| {
        bench.iter(|| black_box(&a).split_by(black_box(&b)))
    });
}

fn bench_counting(c: &mut Criterion) {
    let db = DataMethod::Quest.generate(60, 5_000, 7);
    let set3 = Itemset::from_ids([1, 5, 9]);
    let mut group = c.benchmark_group("counting/table_3items_5k_baskets");
    group.bench_function("horizontal", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            black_box(counter.minterm_counts(black_box(&set3)))
        })
    });
    // Vertical: index built once (as the miner does), tables amortized.
    let mut vertical = VerticalCounter::new(&db);
    group.bench_function("vertical_amortized", |bench| {
        bench.iter(|| black_box(vertical.minterm_counts(black_box(&set3))))
    });
    group.finish();
}

/// The level-batched paths of every strategy against their per-candidate
/// loops: one 200-candidate level of 4-itemsets over 5k baskets.
fn bench_counting_batch(c: &mut Criterion) {
    let db = DataMethod::Quest.generate(60, 5_000, 7);
    let level = dense_level(60, 200, 4, 12);
    let mut group = c.benchmark_group("counting/level_200x4items_5k_baskets");
    group.sample_size(10);
    group.bench_function("horizontal_per_candidate", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            for set in &level {
                black_box(counter.minterm_counts(black_box(set)));
            }
        })
    });
    group.bench_function("horizontal_batch", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            black_box(counter.minterm_counts_batch(black_box(&level)))
        })
    });
    let mut vertical = VerticalCounter::new(&db);
    group.bench_function("vertical_per_candidate", |bench| {
        bench.iter(|| {
            for set in &level {
                black_box(vertical.minterm_counts(black_box(set)));
            }
        })
    });
    group.bench_function("vertical_batch", |bench| {
        bench.iter(|| black_box(vertical.minterm_counts_batch(black_box(&level))))
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("stats/chi2_quantile_df4", |bench| {
        bench.iter(|| black_box(chi2_quantile(black_box(0.9), black_box(4))))
    });
    let table = ContingencyTable::from_counts(
        Itemset::from_ids([0, 1, 2]),
        vec![500, 80, 70, 40, 60, 30, 20, 200],
    );
    c.bench_function("stats/chi_squared_8cells", |bench| {
        bench.iter(|| black_box(&table).chi_squared())
    });
}

fn bench_candidates(c: &mut Criterion) {
    // A level of 500 pairs over 50 items, as the miners see it.
    let mut level: HashSet<Itemset> = HashSet::new();
    for i in 0..50u32 {
        for j in (i + 1)..50 {
            if (i + j) % 3 != 0 {
                level.insert(Itemset::from_ids([i, j]));
            }
        }
    }
    for size in [100usize, 400] {
        let subset: HashSet<Itemset> = level.iter().take(size).cloned().collect();
        c.bench_with_input(
            BenchmarkId::new("candidate/apriori_gen", size),
            &subset,
            |bench, s| bench.iter(|| black_box(candidate::apriori_gen(black_box(s)))),
        );
    }

    // The BMS++ join on a real NOTSIG₃ level, next to `apriori_gen` on
    // the same level: every item a witness (the lattice-sparse queries),
    // and one item in eight a witness over the level's witness-holding
    // sets (BMS++ levels hold nothing else), where most bases have a
    // lone witness and many extend through the universe scan.
    let (items, notsig) = sparse_notsig3();
    c.bench_with_input(
        BenchmarkId::new("candidate/apriori_gen", "notsig3"),
        &notsig,
        |bench, s| bench.iter(|| black_box(candidate::apriori_gen(black_box(s)))),
    );
    let all: ItemMask = items.iter().copied().collect();
    c.bench_with_input(
        BenchmarkId::new("candidate/witness_join", "notsig3_all_witnesses"),
        &notsig,
        |bench, s| bench.iter(|| black_box(candidate::witness_join(black_box(s), &items, &all))),
    );
    let sparse: ItemMask = items.iter().copied().filter(|i| i.id() % 8 == 0).collect();
    let holding: HashSet<Itemset> = notsig
        .iter()
        .filter(|s| s.iter().any(|i| sparse.contains(i)))
        .cloned()
        .collect();
    c.bench_with_input(
        BenchmarkId::new("candidate/witness_join", "notsig3_sparse_witnesses"),
        &holding,
        |bench, s| bench.iter(|| black_box(candidate::witness_join(black_box(s), &items, &sparse))),
    );
}

criterion_group!(
    benches,
    bench_tidset,
    bench_counting,
    bench_counting_batch,
    bench_stats,
    bench_candidates
);
criterion_main!(benches);
