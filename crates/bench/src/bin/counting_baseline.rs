//! Counting-substrate throughput baseline.
//!
//! Times one miner level — 500 candidate 4-itemsets, every 4-subset of
//! a dense 12-item module as `apriori_gen` produces over correlated
//! item clusters, over a 10 000-basket Quest database — through every
//! counting strategy, per candidate and level-batched, and writes
//! `results/BENCH_counting.json` with candidates/sec and tables/sec per
//! strategy. The headline number is the prefix-sharing vertical batch's
//! speedup over per-candidate vertical counting.
//!
//! The `fptree_crossover` sweep is why `Auto` never picks the FP-tree:
//! on a dense 30-item Quest shape it folds the baskets onto a given
//! number of distinct profiles and times the FP-tree against the
//! vertical index, build and one level batch, at two database sizes
//! (DESIGN.md §6.4).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin counting_baseline [-- --out <dir>]
//! ```

use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ccs_bench::DataMethod;
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::{
    Algorithm, AutoRoute, CheckpointCadence, CheckpointPolicy, CorrelationQuery, CountingStrategy,
    GuardLimits, MineRequest, MiningError, MiningParams, MiningSession, RunGuard,
};
use ccs_datagen::{generate_quest, QuestParams};
use ccs_itemset::{
    FpTreeCounter, HorizontalCounter, Itemset, MintermCounter, TransactionDb, VerticalCounter,
};
use ccs_stats::{chi2_quantile, ContingencyTable, Measure, MeasureContext};

const N_ITEMS: u32 = 60;
const N_BASKETS: usize = 10_000;
const N_CANDIDATES: usize = 500;
const CANDIDATE_SIZE: usize = 4;
/// Dense-module width: C(12, 4) = 495 subsets, so 500 candidates span
/// one full module plus the start of a second.
const POOL: u32 = 12;
const REPS: usize = 7;

/// The sparse companion shape: the same transaction count spread over
/// 4× the items, so each item's tid-set is ~4× emptier and whole
/// superblocks go dark — the regime the population-hint skip targets.
const SPARSE_ITEMS: u32 = 240;
const SPARSE_CANDIDATES: usize = 200;

/// The dense low-cardinality companion shape: a small universe where
/// every basket is a union of a few correlated modules, so the whole
/// database collapses into a handful of distinct profiles. Vertical
/// counting still pays per *transaction* (bitmap words scale with
/// baskets); the FP-tree pays per *distinct profile*, which is where
/// pattern growth beats candidate intersection.
const DENSE_LC_ITEMS: u32 = 28;
const DENSE_LC_BASKETS: usize = 40_000;
const DENSE_LC_CANDIDATES: usize = 400;

/// The crossover sweep's shape: dense-deep's Quest parameters (30 items,
/// generator mean basket length 12, so ~8.8 items per basket, density
/// ~0.3), at each of these sizes…
const CROSSOVER_ITEMS: u32 = 30;
const CROSSOVER_BASKETS: [usize; 2] = [10_000, 40_000];
/// …folded onto this many distinct baskets (`None`: the Quest baskets
/// as generated, which hardly repeat).
const CROSSOVER_PROFILES: [Option<usize>; 8] = [
    Some(8),
    Some(32),
    Some(64),
    Some(128),
    Some(256),
    Some(512),
    Some(1024),
    None,
];
/// The level counted at every point: the 4-sets with at least this
/// relative support in the 10 000-basket Quest database — a dense
/// miner level whose candidates span the whole universe.
const CROSSOVER_LEVEL_SUPPORT: f64 = 0.002;

/// The number of distinct baskets in `db`.
fn distinct_baskets(db: &TransactionDb) -> usize {
    db.transactions()
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// The first `profiles` distinct baskets of `base`, in tid order, cycled
/// over `base.len()` transactions.
fn fold_onto_profiles(base: &TransactionDb, profiles: usize) -> TransactionDb {
    let mut seen = std::collections::HashSet::new();
    let pool: Vec<&[ccs_itemset::Item]> = base
        .transactions()
        .filter(|t| seen.insert(*t))
        .take(profiles)
        .collect();
    TransactionDb::new(
        base.n_items(),
        (0..base.len()).map(|i| pool[i % pool.len()].to_vec()),
    )
}

/// Median seconds of `REPS` calls to `build`, after one warm-up call.
fn time_build<T>(mut build: impl FnMut() -> T) -> f64 {
    std::hint::black_box(build());
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(build());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    secs[REPS / 2]
}

/// One point of the crossover sweep.
struct CrossoverPoint {
    transactions: usize,
    distinct: usize,
    vertical_build: f64,
    vertical_batch: f64,
    fptree_build: f64,
    fptree_batch: f64,
}

impl CrossoverPoint {
    fn measure(db: &TransactionDb, level: &[Itemset]) -> CrossoverPoint {
        let batch = |counter: &mut dyn MintermCounter, level: &[Itemset]| {
            std::hint::black_box(counter.minterm_counts_batch(level));
        };
        let mut vertical = VerticalCounter::new(db);
        let mut fptree = FpTreeCounter::new(db);
        assert_eq!(
            vertical.minterm_counts_batch(level),
            fptree.minterm_counts_batch(level),
            "fp-tree and vertical batches disagree"
        );
        CrossoverPoint {
            transactions: db.len(),
            distinct: distinct_baskets(db),
            vertical_build: time_build(|| VerticalCounter::new(db)),
            vertical_batch: time_level(&mut vertical, level, |c, l| batch(c, l)).0,
            fptree_build: time_build(|| FpTreeCounter::new(db)),
            fptree_batch: time_level(&mut fptree, level, |c, l| batch(c, l)).0,
        }
    }

    fn batch_ratio(&self) -> f64 {
        self.fptree_batch / self.vertical_batch
    }

    fn total_ratio(&self) -> f64 {
        (self.fptree_build + self.fptree_batch) / (self.vertical_build + self.vertical_batch)
    }
}

/// Whole unguarded mines of one shape per counter, median of `REPS`,
/// each on a fresh session so the counter's build is paid as a
/// `ccs mine` run pays it.
fn time_whole_mine(
    db: &TransactionDb,
    algorithm: Algorithm,
    strategy: CountingStrategy,
) -> Result<f64, MiningError> {
    let attrs = AttributeTable::with_identity_prices(db.n_items());
    let query = CorrelationQuery {
        params: MiningParams {
            support_fraction: 0.02,
            ..MiningParams::paper()
        },
        constraints: ConstraintSet::new()
            .and(Constraint::max_le("price", f64::from(db.n_items() / 2))),
    };
    let request = MineRequest::new(algorithm).strategy(strategy);
    let mut secs = Vec::with_capacity(REPS);
    MiningSession::new(db, &attrs).mine(&query, &request)?; // warm-up
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(MiningSession::new(db, &attrs).mine(&query, &request)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs.sort_unstable_by(f64::total_cmp);
    Ok(secs[REPS / 2])
}

/// Deterministic profile-clustered baskets: three overlapping modules
/// switched by small moduli plus one rotating tail item — 16 distinct
/// basket shapes across 40 000 transactions, avg length ≈ 14 of 28
/// items (density ≈ 0.5, the shape where the FP-tree batch wins).
fn dense_low_cardinality_db() -> TransactionDb {
    let mut txns = Vec::with_capacity(DENSE_LC_BASKETS);
    for i in 0..DENSE_LC_BASKETS as u32 {
        let mut t: Vec<u32> = Vec::new();
        if i % 2 == 0 {
            t.extend(0..10);
        }
        if i % 3 == 0 {
            t.extend(8..18);
        }
        if i % 5 != 0 {
            t.extend(16..24);
        }
        t.push(24 + i % 4);
        t.sort_unstable();
        t.dedup();
        txns.push(t);
    }
    TransactionDb::from_ids(DENSE_LC_ITEMS, txns)
}

/// One dense miner level: all `k`-subsets of consecutive `pool`-item
/// windows until `n` candidates exist. This is the shape `apriori_gen`
/// produces over a correlated item module — every prefix class is full,
/// every suffix item recurs across many members — i.e. exactly the
/// NOTSIG-heavy regime level batching targets.
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

/// Runs `level_pass` `REPS` times and returns the median wall-clock
/// seconds of one pass, with the counter's table delta across all reps.
fn time_level<C: MintermCounter>(
    counter: &mut C,
    level: &[Itemset],
    mut level_pass: impl FnMut(&mut C, &[Itemset]),
) -> (f64, u64) {
    let base_tables = counter.stats().tables_built;
    level_pass(counter, level); // warm-up (vertical index, page cache)
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            level_pass(counter, level);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    let tables = counter.stats().tables_built - base_tables;
    (secs[REPS / 2], tables / (REPS as u64 + 1))
}

/// One durability data point: a full governed BMS++ mine, median of
/// `REPS` runs, with the candidate throughput the checkpoint layer must
/// not depress.
struct OverheadPoint {
    seconds: f64,
    candidates: u64,
    stamps_per_run: u64,
}

impl OverheadPoint {
    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.seconds
    }
}

/// Times a complete mining run (armed guard both sides, so the only
/// variable is the durability layer) with an optional checkpoint policy
/// committing atomically to `ckpt_path` at every level.
fn time_mine(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    ckpt_path: Option<&Path>,
) -> Result<OverheadPoint, MiningError> {
    let run = || -> Result<(u64, u64), MiningError> {
        let mut request =
            MineRequest::new(Algorithm::BmsPlusPlus).guard(RunGuard::new(GuardLimits::default()));
        if let Some(path) = ckpt_path {
            request =
                request.checkpoint(CheckpointPolicy::file(path, CheckpointCadence::EveryLevel));
        }
        let outcome = MiningSession::new(db, attrs).mine(query, &request)?;
        assert!(outcome.result.completion.is_complete());
        let stamps = outcome.checkpoint.map_or(0, |r| {
            assert!(r.error.is_none(), "checkpoint write failed: {:?}", r.error);
            r.written
        });
        Ok((outcome.result.metrics.candidates_generated, stamps))
    };
    let (candidates, stamps_per_run) = run()?; // warm-up (page cache)
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(run()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs.sort_unstable_by(f64::total_cmp);
    Ok(OverheadPoint {
        seconds: secs[REPS / 2],
        candidates,
        stamps_per_run,
    })
}

/// How many sweeps over the prebuilt tables one verdict timing sample
/// runs: a single sweep is microseconds, so the inner loop stretches
/// each sample well past timer granularity.
const VERDICT_PASSES: usize = 200;

/// Median seconds for `VERDICT_PASSES` sweeps of `judge` over the
/// prebuilt tables — counting cost is paid once, outside the timed
/// region, so the two spellings differ only in how the verdict is
/// reached.
fn time_verdicts(
    tables: &[ContingencyTable],
    mut judge: impl FnMut(&ContingencyTable) -> bool,
) -> f64 {
    for t in tables {
        std::hint::black_box(judge(t)); // warm-up
    }
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..VERDICT_PASSES {
                for t in tables {
                    std::hint::black_box(judge(t));
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    secs[REPS / 2]
}

struct Row {
    name: &'static str,
    seconds: f64,
    tables_per_pass: u64,
    candidates: usize,
}

impl Row {
    /// The row called `name` in `rows`.
    fn find<'a>(rows: &'a [Row], name: &str) -> Result<&'a Row, String> {
        rows.iter()
            .find(|r| r.name == name)
            .ok_or_else(|| format!("no {name} row"))
    }

    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.seconds
    }

    fn tables_per_sec(&self) -> f64 {
        self.tables_per_pass as f64 / self.seconds
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?);
        }
    }

    let db = DataMethod::Quest.generate(N_ITEMS, N_BASKETS, 7);
    let level = dense_level(N_ITEMS, N_CANDIDATES, CANDIDATE_SIZE, POOL);
    assert_eq!(level.len(), N_CANDIDATES);

    let single = |counter: &mut dyn MintermCounter, level: &[Itemset]| {
        for set in level {
            std::hint::black_box(counter.minterm_counts(set));
        }
    };
    let batch = |counter: &mut dyn MintermCounter, level: &[Itemset]| {
        std::hint::black_box(counter.minterm_counts_batch(level));
    };

    let mut rows: Vec<Row> = Vec::new();
    {
        let mut c = HorizontalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "horizontal/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "horizontal/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = VerticalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "vertical/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = FpTreeCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "fptree/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "fptree/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }

    // The sparse companion shape, vertical batch only: per-item tid-sets
    // are ~4× emptier here, so the superblock population-hint skip does
    // real work instead of merely not hurting.
    let sparse_db = DataMethod::Quest.generate(SPARSE_ITEMS, N_BASKETS, 7);
    let sparse_level = dense_level(SPARSE_ITEMS, SPARSE_CANDIDATES, CANDIDATE_SIZE, POOL);
    let mut sparse_rows: Vec<Row> = Vec::new();
    {
        let mut c = VerticalCounter::new(&sparse_db);
        let (s, t) = time_level(&mut c, &sparse_level, |c, l| batch(c, l));
        sparse_rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: SPARSE_CANDIDATES,
        });
    }

    // The dense low-cardinality shape, batch paths: the FP-tree's home
    // turf. Candidates are drawn from one 12-item module, so the
    // projection memoizer amortizes to one conditional projection per
    // header item across the whole level.
    let lc_db = dense_low_cardinality_db();
    let lc_level = dense_level(DENSE_LC_ITEMS, DENSE_LC_CANDIDATES, CANDIDATE_SIZE, POOL);
    let mut lc_rows: Vec<Row> = Vec::new();
    {
        let mut c = VerticalCounter::new(&lc_db);
        let (s, t) = time_level(&mut c, &lc_level, |c, l| batch(c, l));
        lc_rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
        let mut c = FpTreeCounter::new(&lc_db);
        let (s, t) = time_level(&mut c, &lc_level, |c, l| single(c, l));
        lc_rows.push(Row {
            name: "fptree/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &lc_level, |c, l| batch(c, l));
        lc_rows.push(Row {
            name: "fptree/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
    }

    // The FP-tree/vertical crossover: distinct baskets × n on dense-deep's
    // shape, one level batch per counter plus each counter's build.
    let crossover_bases: Vec<TransactionDb> = CROSSOVER_BASKETS
        .iter()
        .map(|&n| {
            generate_quest(&QuestParams {
                avg_transaction_len: 12.0,
                ..QuestParams::small(n, CROSSOVER_ITEMS, 7)
            })
        })
        .collect();
    let crossover_level: Vec<Itemset> = {
        let base = &crossover_bases[0];
        let mut counter = VerticalCounter::new(base);
        let min_support = (CROSSOVER_LEVEL_SUPPORT * base.len() as f64).ceil() as u64;
        let mut all = Vec::new();
        for a in 0..CROSSOVER_ITEMS {
            for b in a + 1..CROSSOVER_ITEMS {
                for c in b + 1..CROSSOVER_ITEMS {
                    all.extend((c + 1..CROSSOVER_ITEMS).map(|d| Itemset::from_ids([a, b, c, d])));
                }
            }
        }
        let tables = counter.minterm_counts_batch(&all);
        all.into_iter()
            .zip(tables)
            // The last cell is the one with every item present.
            .filter(|(_, cells)| cells[cells.len() - 1] >= min_support)
            .map(|(set, _)| set)
            .collect()
    };
    let mut crossover: Vec<CrossoverPoint> = Vec::new();
    for base in &crossover_bases {
        for profiles in CROSSOVER_PROFILES {
            let db = match profiles {
                Some(p) => fold_onto_profiles(base, p),
                None => base.clone(),
            };
            crossover.push(CrossoverPoint::measure(&db, &crossover_level));
        }
    }
    // Whole mines on collapsed shapes, where the build is paid once per
    // run: short baskets over a tiny universe, and long ones.
    let short_collapsed =
        TransactionDb::from_ids(4, (0..70_000u32).map(|t| vec![t % 4, (t + 1) % 4]));
    let long_collapsed = fold_onto_profiles(&crossover_bases[1], 64);
    let mut whole_mines: Vec<(&str, f64, Algorithm, f64, f64)> = Vec::new();
    for (shape, db) in [
        ("short_4_items", &short_collapsed),
        ("long_64_profiles", &long_collapsed),
    ] {
        for algorithm in [Algorithm::BmsPlusPlus, Algorithm::BmsStarStar] {
            whole_mines.push((
                shape,
                db.avg_transaction_len(),
                algorithm,
                time_whole_mine(db, algorithm, CountingStrategy::Vertical)?,
                time_whole_mine(db, algorithm, CountingStrategy::FpTree)?,
            ));
        }
    }

    // Durability overhead: a complete governed BMS++ mine on the dense
    // database, with and without every-level checkpointing into a real
    // file (atomic temp + fsync + rename per stamp). The guard is armed
    // on both sides so the only variable is the persistence layer.
    std::fs::create_dir_all(&out_dir)?;
    let attrs = AttributeTable::with_identity_prices(N_ITEMS);
    let mine_query = CorrelationQuery {
        params: MiningParams::paper(),
        constraints: ConstraintSet::new().and(Constraint::max_le("price", f64::from(N_ITEMS / 2))),
    };
    // ccs-lint: allow(checkpoint-io-confined, reason = "bench measures checkpoint overhead through the public CheckpointPolicy API; persist.rs still does all I/O")
    let ckpt_path = out_dir.join("bench_checkpoint.ccs");
    let no_ckpt = time_mine(&db, &attrs, &mine_query, None)?;
    let every_level = time_mine(&db, &attrs, &mine_query, Some(&ckpt_path))?;
    let _ = std::fs::remove_file(&ckpt_path);
    let overhead_pct = (every_level.seconds / no_ckpt.seconds - 1.0) * 100.0;

    // Verdict-dispatch overhead: every miner now judges correlation
    // through `MeasureContext` (enum dispatch + precomputed critical
    // value) instead of calling `chi_squared` directly. Both spellings
    // sweep the same 500 prebuilt tables, so the delta is pure dispatch
    // cost; the ratio-measure rows give the absolute scale of the
    // all-confidence and bond statistics for comparison.
    let tables: Vec<ContingencyTable> = {
        let mut c = VerticalCounter::new(&db);
        level
            .iter()
            .map(|set| ContingencyTable::build(&mut c, set))
            .collect()
    };
    // ccs-lint: allow(measure-verdict-confined, reason = "bench baseline: the pre-measure-layer direct spelling this row compares dispatch against")
    let direct_crit = chi2_quantile(0.9, 1);
    // ccs-lint: allow(measure-verdict-confined, reason = "bench baseline: the pre-measure-layer direct spelling this row compares dispatch against")
    let direct_secs = time_verdicts(&tables, |t| t.chi_squared() >= direct_crit);
    let chi2_ctx = MeasureContext::new(Measure::Chi2, 0.9)?;
    let dispatch_secs = time_verdicts(&tables, |t| chi2_ctx.verdict(t));
    let verdict_overhead_pct = (dispatch_secs / direct_secs - 1.0) * 100.0;
    let allconf_ctx = MeasureContext::new(Measure::AllConfidence, 0.5)?;
    let allconf_secs = time_verdicts(&tables, |t| allconf_ctx.verdict(t));
    let bond_ctx = MeasureContext::new(Measure::Bond, 0.1)?;
    let bond_secs = time_verdicts(&tables, |t| bond_ctx.verdict(t));

    let vertical_single = Row::find(&rows, "vertical/per_candidate")?;
    let vertical_batch = Row::find(&rows, "vertical/batch")?;
    let speedup = vertical_single.seconds / vertical_batch.seconds;
    let lc_vertical_batch = Row::find(&lc_rows, "vertical/batch")?;
    let lc_fptree_batch = Row::find(&lc_rows, "fptree/batch")?;
    let fptree_speedup = lc_vertical_batch.seconds / lc_fptree_batch.seconds;
    let available = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);

    // Build provenance: the ISA surface this binary was actually
    // compiled for (cfg! probes are compile-time truth, whatever mix of
    // .cargo/config.toml and RUSTFLAGS produced it) plus the RUSTFLAGS
    // environment as seen at run time — together they make cross-box
    // comparisons self-describing.
    let target_features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, enabled)| *enabled)
    .map(|(name, _)| *name)
    .collect();
    let rustflags = std::env::var("RUSTFLAGS")
        .unwrap_or_else(|_| String::from("(unset; .cargo/config.toml: -C target-cpu=x86-64-v2)"));
    // What `Auto` picks for each bench shape (a function of the database
    // alone, so the same on every host). `dense_diverse` is dense-deep's
    // shape: dense, long baskets that hardly repeat.
    let routing = [
        ("dense", AutoRoute::of(&db)),
        ("sparse", AutoRoute::of(&sparse_db)),
        ("dense_low_cardinality", AutoRoute::of(&lc_db)),
        ("dense_diverse", AutoRoute::of(&crossover_bases[0])),
    ];

    println!(
        "counting baseline: {N_CANDIDATES} candidates of size {CANDIDATE_SIZE}, \
         {N_BASKETS} baskets, {N_ITEMS} items (median of {REPS} passes)"
    );
    println!(
        "{:>26} {:>12} {:>16} {:>14}",
        "strategy", "seconds", "candidates/sec", "tables/sec"
    );
    for r in &rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    println!("\nvertical batch speedup over per-candidate: {speedup:.2}x");
    println!(
        "sparse shape ({SPARSE_ITEMS} items, {N_BASKETS} baskets, \
         {SPARSE_CANDIDATES} candidates):"
    );
    for r in &sparse_rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    let lc_distinct = distinct_baskets(&lc_db);
    println!(
        "dense low-cardinality shape ({DENSE_LC_ITEMS} items, {DENSE_LC_BASKETS} baskets, \
         {DENSE_LC_CANDIDATES} candidates, {lc_distinct} distinct profiles):"
    );
    for r in &lc_rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    println!(
        "fptree batch speedup over vertical batch (dense low-cardinality): {fptree_speedup:.2}x"
    );
    println!(
        "fp-tree crossover ({CROSSOVER_ITEMS} items, {} candidate 4-sets; times in ms):",
        crossover_level.len()
    );
    println!(
        "{:>7} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "n", "distinct", "vert build", "vert batch", "fp build", "fp batch", "fp/vert", "w/ build"
    );
    for p in &crossover {
        println!(
            "{:>7} {:>9} {:>11.3} {:>11.3} {:>9.3} {:>9.3} {:>9.2} {:>9.2}",
            p.transactions,
            p.distinct,
            p.vertical_build * 1e3,
            p.vertical_batch * 1e3,
            p.fptree_build * 1e3,
            p.fptree_batch * 1e3,
            p.batch_ratio(),
            p.total_ratio()
        );
    }
    println!("whole mines on collapsed shapes (fresh session per run, ms):");
    for (shape, avg_len, algorithm, vertical, fptree) in &whole_mines {
        println!(
            "  {shape} (mean basket {avg_len:.1}) {algorithm}: vertical {:.3}, fp-tree {:.3} ({:.2}x)",
            vertical * 1e3,
            fptree * 1e3,
            fptree / vertical
        );
    }
    println!("auto routing:");
    for (shape, route) in &routing {
        println!("  {shape}: {route}");
    }
    println!("checkpoint overhead (full BMS++ mine, armed guard both sides):");
    println!(
        "  no checkpoint: {:.6}s ({:.0} cand/s)",
        no_ckpt.seconds,
        no_ckpt.candidates_per_sec()
    );
    println!(
        "  every level ({} stamps/run): {:.6}s ({:.0} cand/s, {:+.1}%)",
        every_level.stamps_per_run,
        every_level.seconds,
        every_level.candidates_per_sec(),
        overhead_pct
    );
    let per_verdict = |secs: f64| secs / (VERDICT_PASSES * tables.len()) as f64 * 1e9;
    println!(
        "verdict dispatch overhead ({} tables x {VERDICT_PASSES} sweeps):",
        tables.len()
    );
    println!(
        "  direct chi2:         {:.6}s ({:.1} ns/verdict)",
        direct_secs,
        per_verdict(direct_secs)
    );
    println!(
        "  MeasureContext chi2: {:.6}s ({:.1} ns/verdict, {:+.1}%)",
        dispatch_secs,
        per_verdict(dispatch_secs),
        verdict_overhead_pct
    );
    println!(
        "  all-confidence:      {:.6}s ({:.1} ns/verdict)",
        allconf_secs,
        per_verdict(allconf_secs)
    );
    println!(
        "  bond:                {:.6}s ({:.1} ns/verdict)",
        bond_secs,
        per_verdict(bond_secs)
    );
    println!("available parallelism on this host: {available}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"items\": {N_ITEMS}, \"transactions\": {N_BASKETS}, \
         \"candidates\": {N_CANDIDATES}, \"candidate_size\": {CANDIDATE_SIZE}, \
         \"reps\": {REPS}, \"available_parallelism\": {available},"
    );
    let _ = writeln!(
        json,
        "    \"target_features\": \"{}\", \"rustflags\": \"{}\",",
        target_features.join(","),
        rustflags.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let _ = writeln!(
        json,
        "    \"auto_routing\": {{ {} }} }},",
        routing
            .iter()
            .map(|(shape, route)| format!("\"{shape}\": \"{}\"", route.strategy()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"strategies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sparse\": {{ \"items\": {SPARSE_ITEMS}, \"transactions\": {N_BASKETS}, \
         \"candidates\": {SPARSE_CANDIDATES}, \"strategies\": ["
    );
    for (i, r) in sparse_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < sparse_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ] },\n");
    let _ = writeln!(
        json,
        "  \"dense_low_cardinality\": {{ \"items\": {DENSE_LC_ITEMS}, \
         \"transactions\": {DENSE_LC_BASKETS}, \"candidates\": {DENSE_LC_CANDIDATES}, \
         \"distinct_profiles\": {lc_distinct}, \"strategies\": ["
    );
    for (i, r) in lc_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < lc_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        json,
        "  ], \"fptree_batch_speedup_over_vertical_batch\": {fptree_speedup:.2} }},"
    );
    let _ = writeln!(
        json,
        "  \"fptree_crossover\": {{ \"items\": {CROSSOVER_ITEMS}, \
         \"candidates\": {}, \"candidate_size\": {CANDIDATE_SIZE}, \
         \"level_min_support\": {CROSSOVER_LEVEL_SUPPORT}, \"points\": [",
        crossover_level.len()
    );
    for (i, p) in crossover.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"transactions\": {}, \"distinct_baskets\": {}, \
             \"vertical_build_ms\": {:.3}, \"vertical_batch_ms\": {:.3}, \
             \"fptree_build_ms\": {:.3}, \"fptree_batch_ms\": {:.3}, \
             \"fptree_over_vertical_batch\": {:.2}, \"fptree_over_vertical_with_build\": {:.2} }}{}",
            p.transactions,
            p.distinct,
            p.vertical_build * 1e3,
            p.vertical_batch * 1e3,
            p.fptree_build * 1e3,
            p.fptree_batch * 1e3,
            p.batch_ratio(),
            p.total_ratio(),
            if i + 1 < crossover.len() { "," } else { "" }
        );
    }
    json.push_str("  ], \"whole_mines\": [\n");
    for (i, (shape, avg_len, algorithm, vertical, fptree)) in whole_mines.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"shape\": \"{shape}\", \"avg_basket_len\": {avg_len:.2}, \
             \"algorithm\": \"{algorithm}\", \"vertical_ms\": {:.3}, \"fptree_ms\": {:.3} }}{}",
            vertical * 1e3,
            fptree * 1e3,
            if i + 1 < whole_mines.len() { "," } else { "" }
        );
    }
    json.push_str("  ] },\n");
    let _ = writeln!(
        json,
        "  \"checkpoint_overhead\": {{ \
         \"no_checkpoint\": {{ \"median_seconds\": {:.6}, \"candidates_per_sec\": {:.1} }}, \
         \"every_level\": {{ \"median_seconds\": {:.6}, \"candidates_per_sec\": {:.1}, \
         \"stamps_per_run\": {} }}, \"overhead_percent\": {:.1} }},",
        no_ckpt.seconds,
        no_ckpt.candidates_per_sec(),
        every_level.seconds,
        every_level.candidates_per_sec(),
        every_level.stamps_per_run,
        overhead_pct
    );
    let _ = writeln!(
        json,
        "  \"verdict_overhead\": {{ \"tables\": {}, \"sweeps_per_rep\": {VERDICT_PASSES}, \
         \"direct_chi2\": {{ \"median_seconds\": {:.6}, \"ns_per_verdict\": {:.1} }}, \
         \"measure_dispatch_chi2\": {{ \"median_seconds\": {:.6}, \"ns_per_verdict\": {:.1} }}, \
         \"overhead_percent\": {:.1}, \
         \"all_confidence_ns_per_verdict\": {:.1}, \"bond_ns_per_verdict\": {:.1} }},",
        tables.len(),
        direct_secs,
        per_verdict(direct_secs),
        dispatch_secs,
        per_verdict(dispatch_secs),
        verdict_overhead_pct,
        per_verdict(allconf_secs),
        per_verdict(bond_secs)
    );
    let _ = writeln!(
        json,
        "  \"vertical_batch_speedup_over_per_candidate\": {speedup:.2}"
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_counting.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}
