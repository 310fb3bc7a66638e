//! Minterm (contingency-cell) counting strategies.
//!
//! Every mining algorithm needs, for a candidate itemset `S`, the count of
//! each of the `2^|S|` minterms over `S` — the cells of its contingency
//! table. Two strategies are provided behind the [`MintermCounter`] trait:
//!
//! * [`HorizontalCounter`] scans the transaction database once per table,
//!   exactly as the paper's cost model assumes (work ∝ sets considered ×
//!   database size). The miners use this by default so measured runtimes
//!   follow the paper's analysis.
//! * [`VerticalCounter`] answers from per-item tid-sets, trading one
//!   up-front indexing pass for much cheaper per-table work. It exists to
//!   ablate the counting strategy (see DESIGN.md §5).
//!
//! Both implementations keep work counters so experiments can report *sets
//! considered* / *tables built* alongside wall-clock time.
//!
//! # Cooperative interruption
//!
//! Batch counting can run for a long time on a dense level, so every
//! counter also exposes a *guarded* batch entry point,
//! [`MintermCounter::minterm_counts_batch_guarded`], which consults a
//! [`CountProbe`] at interior loop boundaries (horizontal chunk loop,
//! vertical prefix-class loop, FP-tree projection boundary) and abandons
//! the batch with [`BatchInterrupted`] when the probe asks it to stop. Work
//! statistics stay accurate across an abandoned batch: every *completed*
//! unit (scan, prefix class, table) is flushed into [`CountingStats`]
//! before the error returns. The unguarded methods are the guarded ones
//! driven by [`NoProbe`].

use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::vertical::VerticalIndex;

/// How many transactions a horizontal scan processes between probe
/// checks. Small enough to stay responsive on multi-million-row
/// databases, large enough that the check is free.
pub(crate) const PROBE_CHUNK: usize = 1024;

/// Counting work statistics, shared by all counter implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingStats {
    /// Number of contingency tables built (candidate sets counted).
    pub tables_built: u64,
    /// Number of full database passes performed (horizontal only).
    pub db_scans: u64,
    /// Total transactions visited across all scans.
    pub transactions_visited: u64,
    /// Total contingency cells computed (`2^k` per `k`-itemset table).
    pub cells_counted: u64,
    /// Evaluations answered from a verdict cache instead of a counter
    /// (tracked by `ccs-core`'s engine, not by the counters themselves).
    pub cache_hits: u64,
    /// Batches a counter answered below its preferred rung of the
    /// degradation ladder (FP-tree → vertical → horizontal; vertical →
    /// horizontal) after a scratch-arena memory budget tripped.
    pub degraded_batches: u64,
}

impl CountingStats {
    /// The work performed since `base` was captured (field-wise
    /// difference; all counters are monotone).
    pub fn since(&self, base: &CountingStats) -> CountingStats {
        CountingStats {
            tables_built: self.tables_built - base.tables_built,
            db_scans: self.db_scans - base.db_scans,
            transactions_visited: self.transactions_visited - base.transactions_visited,
            cells_counted: self.cells_counted - base.cells_counted,
            cache_hits: self.cache_hits - base.cache_hits,
            degraded_batches: self.degraded_batches - base.degraded_batches,
        }
    }

    /// A record charging `tables` contingency tables totalling `cells`
    /// cells — the delta every counter reports per answered batch.
    pub fn tables(tables_built: u64, cells_counted: u64) -> CountingStats {
        CountingStats {
            tables_built,
            cells_counted,
            ..CountingStats::default()
        }
    }
}

/// Field-wise accumulation — the one merge every counter and metrics
/// record routes through, and the inverse of [`CountingStats::since`].
impl std::ops::AddAssign<&CountingStats> for CountingStats {
    fn add_assign(&mut self, rhs: &CountingStats) {
        self.tables_built += rhs.tables_built;
        self.db_scans += rhs.db_scans;
        self.transactions_visited += rhs.transactions_visited;
        self.cells_counted += rhs.cells_counted;
        self.cache_hits += rhs.cache_hits;
        self.degraded_batches += rhs.degraded_batches;
    }
}

impl std::ops::AddAssign for CountingStats {
    fn add_assign(&mut self, rhs: CountingStats) {
        *self += &rhs;
    }
}

/// A cooperative-interruption hook consulted inside batch counting loops.
///
/// Implemented by `ccs-core`'s `RunGuard`; [`NoProbe`] is the no-op used
/// by the unguarded paths.
pub trait CountProbe {
    /// `true` when counting should stop at the next boundary (deadline
    /// passed, budget exhausted, or externally cancelled).
    fn should_stop(&self) -> bool;

    /// Records `cells` contingency cells of completed work against the
    /// probe's work budget; returns `true` when the budget is now
    /// exhausted (the completed work is kept, further work should stop).
    fn charge(&self, cells: u64) -> bool;

    /// The memory budget, in bytes, for a vertical counter's scratch
    /// arena, or `None` for unlimited.
    fn arena_budget_bytes(&self) -> Option<usize> {
        None
    }

    /// Notifies the probe that a memory budget was tripped by a counter
    /// that has no cheaper strategy to degrade to.
    fn note_memory_trip(&self) {}
}

/// The probe that never interrupts: unguarded counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl CountProbe for NoProbe {
    fn should_stop(&self) -> bool {
        false
    }
    fn charge(&self, _cells: u64) -> bool {
        false
    }
}

/// A batch was abandoned at a probe checkpoint. Carries the work that
/// *did* complete, so callers can keep statistics accurate; the partial
/// count vectors themselves are discarded (a half-counted table is not a
/// sound table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchInterrupted {
    /// Tables fully counted before the interrupt.
    pub tables_completed: u64,
    /// Contingency cells of those completed tables.
    pub cells_completed: u64,
}

/// A strategy for counting the `2^k` minterms of an itemset.
pub trait MintermCounter {
    /// Counts all `2^|set|` minterm cells. Cell indexing follows
    /// [`VerticalIndex::minterm_counts`]: bit `j` of the cell index is 1 iff
    /// the `j`-th smallest item of `set` is present.
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64>;

    /// Counts a whole level of candidates, returning one `2^k` count
    /// vector per candidate in input order.
    ///
    /// The default implementation counts each set independently;
    /// implementations override it to share work across the level
    /// (a single scan for horizontal counters, prefix-shared tid-set
    /// recursion for vertical ones).
    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        sets.iter().map(|s| self.minterm_counts(s)).collect()
    }

    /// [`minterm_counts_batch`](Self::minterm_counts_batch) with
    /// cooperative interruption: `probe` is consulted at interior loop
    /// boundaries and the batch is abandoned with [`BatchInterrupted`]
    /// when it asks to stop. Completed work is still recorded in
    /// [`stats`](Self::stats).
    ///
    /// The default implementation checks the probe between sets.
    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut out = Vec::with_capacity(sets.len());
        let mut done = BatchInterrupted::default();
        for set in sets {
            if probe.should_stop() {
                return Err(done);
            }
            out.push(self.minterm_counts(set));
            let cells = 1u64 << set.len();
            done.tables_completed += 1;
            done.cells_completed += cells;
            if probe.charge(cells) {
                return Err(done);
            }
        }
        Ok(out)
    }

    /// Number of transactions in the underlying database.
    fn n_transactions(&self) -> usize;

    /// Work performed so far.
    fn stats(&self) -> CountingStats;
}

/// Forwarding impl so strategy-selection code can hand around a
/// `Box<dyn MintermCounter>` and still call everything through the
/// trait. Each method forwards explicitly — inheriting the trait's
/// per-set defaults here would silently discard the boxed counter's
/// batch sharing and guarded-interrupt behaviour.
impl MintermCounter for Box<dyn MintermCounter + '_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        (**self).minterm_counts(set)
    }

    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        (**self).minterm_counts_batch(sets)
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        (**self).minterm_counts_batch_guarded(sets, probe)
    }

    fn n_transactions(&self) -> usize {
        (**self).n_transactions()
    }

    fn stats(&self) -> CountingStats {
        (**self).stats()
    }
}

/// One guarded horizontal scan over `db`, updating every candidate's
/// table per transaction. Shared by [`HorizontalCounter`] and the
/// degraded path of [`VerticalCounter`]. Flushes `stats` for the scan's
/// completed work whether or not the scan finishes: `db_scans` counts the
/// started scan, `transactions_visited` the rows actually read, and
/// `tables_built`/`cells_counted` only move when the scan completes
/// (a half-scanned table was never built).
pub(crate) fn horizontal_batch_guarded(
    db: &TransactionDb,
    sets: &[Itemset],
    probe: &dyn CountProbe,
    stats: &mut CountingStats,
) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
    if sets.is_empty() {
        return Ok(Vec::new());
    }
    let mut tables: Vec<Vec<u64>> = sets.iter().map(|s| vec![0u64; 1usize << s.len()]).collect();
    stats.db_scans += 1;
    let mut visited_in_chunk = 0usize;
    for t in db.transactions() {
        if visited_in_chunk == PROBE_CHUNK {
            visited_in_chunk = 0;
            if probe.should_stop() {
                return Err(BatchInterrupted::default());
            }
        }
        visited_in_chunk += 1;
        stats.transactions_visited += 1;
        for (set, table) in sets.iter().zip(tables.iter_mut()) {
            table[cell_index(t, set)] += 1;
        }
    }
    let cells: u64 = tables.iter().map(|t| t.len() as u64).sum();
    *stats += CountingStats::tables(sets.len() as u64, cells);
    // The scan completed: the tables are sound and the caller keeps them
    // even if this charge exhausts the budget — the *next* checkpoint
    // observes the exhaustion.
    let _ = probe.charge(cells);
    Ok(tables)
}

/// Paper-faithful counter: one database scan per contingency table.
#[derive(Debug)]
pub struct HorizontalCounter<'a> {
    db: &'a TransactionDb,
    stats: CountingStats,
}

impl<'a> HorizontalCounter<'a> {
    /// Creates a counter over `db`.
    pub fn new(db: &'a TransactionDb) -> Self {
        HorizontalCounter {
            db,
            stats: CountingStats::default(),
        }
    }
}

impl MintermCounter for HorizontalCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let mut counts = vec![0u64; 1usize << set.len()];
        for t in self.db.transactions() {
            counts[cell_index(t, set)] += 1;
            self.stats.transactions_visited += 1;
        }
        self.stats += CountingStats {
            db_scans: 1,
            ..CountingStats::tables(1, counts.len() as u64)
        };
        counts
    }

    /// Counts minterms for a whole level of candidates in a *single* scan,
    /// as Apriori-style implementations do: each transaction updates every
    /// candidate's table.
    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        match horizontal_batch_guarded(self.db, sets, &NoProbe, &mut self.stats) {
            Ok(tables) => tables,
            Err(_) => unreachable!("NoProbe never interrupts"),
        }
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        horizontal_batch_guarded(self.db, sets, probe, &mut self.stats)
    }

    fn n_transactions(&self) -> usize {
        self.db.len()
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

/// Tid-set-based counter: builds a vertical index once, then answers each
/// table by recursive tid-set splitting.
///
/// Keeps a reference to the source database so it can *degrade
/// gracefully*: when a [`CountProbe`] memory budget is smaller than the
/// scratch arena a batch needs, the counter permanently falls back to
/// guarded horizontal scans (recorded in
/// [`CountingStats::degraded_batches`]) instead of aborting the run.
#[derive(Debug)]
pub struct VerticalCounter<'a> {
    db: &'a TransactionDb,
    index: VerticalIndex,
    stats: CountingStats,
    degraded: bool,
}

impl<'a> VerticalCounter<'a> {
    /// Builds the vertical index over `db` (one scan) and wraps it.
    pub fn new(db: &'a TransactionDb) -> Self {
        let index = VerticalIndex::build(db);
        VerticalCounter {
            db,
            index,
            stats: CountingStats {
                db_scans: 1,
                ..CountingStats::default()
            },
            degraded: false,
        }
    }

    /// Direct access to the underlying index.
    pub fn index(&self) -> &VerticalIndex {
        &self.index
    }

    /// Mutable access to the underlying index (counting methods need
    /// `&mut` for the scratch arena).
    pub fn index_mut(&mut self) -> &mut VerticalIndex {
        &mut self.index
    }

    /// `true` once a memory budget has forced the counter onto the
    /// horizontal fallback path (sticky for the rest of the run).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl MintermCounter for VerticalCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.stats += CountingStats::tables(1, 1u64 << set.len());
        self.index.minterm_counts(set)
    }

    /// Batch counting with Eclat-style prefix sharing; see
    /// [`VerticalIndex::minterm_counts_batch`].
    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        match self.minterm_counts_batch_guarded(sets, &NoProbe) {
            Ok(tables) => tables,
            Err(_) => unreachable!("NoProbe never interrupts"),
        }
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        // Degradation ladder: if the scratch arena this batch needs would
        // exceed the probe's memory budget, answer this and every later
        // batch with horizontal scans — the strategies agree exactly
        // (counting-equivalence property tests), only the cost model
        // changes.
        if !self.degraded {
            if let Some(budget) = probe.arena_budget_bytes() {
                let depths = sets
                    .iter()
                    .map(|s| s.len().saturating_sub(2))
                    .max()
                    .unwrap_or(0);
                if VerticalIndex::scratch_bytes(self.index.n_transactions(), depths) > budget {
                    self.degraded = true;
                }
            }
        }
        if self.degraded {
            self.stats.degraded_batches += 1;
            return horizontal_batch_guarded(self.db, sets, probe, &mut self.stats);
        }
        match self.index.minterm_counts_batch_guarded(sets, probe) {
            Ok(tables) => {
                self.stats += CountingStats::tables(
                    sets.len() as u64,
                    sets.iter().map(|s| 1u64 << s.len()).sum::<u64>(),
                );
                Ok(tables)
            }
            Err(partial) => {
                self.stats +=
                    CountingStats::tables(partial.tables_completed, partial.cells_completed);
                Err(partial)
            }
        }
    }

    fn n_transactions(&self) -> usize {
        self.index.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

/// Computes which contingency cell a transaction falls in for `set`:
/// bit `j` set iff the `j`-th smallest item of `set` occurs in `t`.
#[inline]
pub fn cell_index(t: &[crate::item::Item], set: &Itemset) -> usize {
    let mut idx = 0usize;
    let mut ti = 0usize;
    for (j, &item) in set.items().iter().enumerate() {
        while ti < t.len() && t[ti] < item {
            ti += 1;
        }
        if ti < t.len() && t[ti] == item {
            idx |= 1 << j;
            ti += 1;
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn stats_add_assign_sums_every_field() {
        let a = CountingStats {
            tables_built: 1,
            db_scans: 2,
            transactions_visited: 3,
            cells_counted: 4,
            cache_hits: 5,
            degraded_batches: 6,
        };
        let b = CountingStats {
            tables_built: 10,
            db_scans: 20,
            transactions_visited: 30,
            cells_counted: 40,
            cache_hits: 50,
            degraded_batches: 60,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(sum.tables_built, 11);
        assert_eq!(sum.db_scans, 22);
        assert_eq!(sum.transactions_visited, 33);
        assert_eq!(sum.cells_counted, 44);
        assert_eq!(sum.cache_hits, 55);
        assert_eq!(sum.degraded_batches, 66);
        // `since` is the merge's inverse, field for field.
        assert_eq!(sum.since(&a), b);
        assert_eq!(sum.since(&b), a);
        // The by-ref form agrees with the by-value form.
        let mut by_ref = a;
        by_ref += &b;
        assert_eq!(by_ref, sum);
    }

    #[test]
    fn stats_tables_charges_only_tables_and_cells() {
        assert_eq!(
            CountingStats::tables(3, 24),
            CountingStats {
                tables_built: 3,
                cells_counted: 24,
                ..CountingStats::default()
            }
        );
    }

    fn db() -> TransactionDb {
        TransactionDb::from_ids(
            4,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
                vec![2],
                vec![],
                vec![3],
            ],
        )
    }

    /// A probe that stops after a fixed number of `charge` calls and can
    /// also stop unconditionally.
    struct BudgetProbe {
        budget_cells: u64,
        spent: AtomicU64,
        stop_now: bool,
    }

    impl BudgetProbe {
        fn cells(budget_cells: u64) -> Self {
            BudgetProbe {
                budget_cells,
                spent: AtomicU64::new(0),
                stop_now: false,
            }
        }
        fn stopped() -> Self {
            BudgetProbe {
                budget_cells: u64::MAX,
                spent: AtomicU64::new(0),
                stop_now: true,
            }
        }
    }

    impl CountProbe for BudgetProbe {
        fn should_stop(&self) -> bool {
            self.stop_now || self.spent.load(Ordering::Relaxed) >= self.budget_cells
        }
        fn charge(&self, cells: u64) -> bool {
            self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.budget_cells
        }
    }

    #[test]
    fn cell_index_matches_membership() {
        let set = Itemset::from_ids([1, 3]);
        let t: Vec<Item> = [0u32, 1, 2].iter().map(|&i| Item(i)).collect();
        assert_eq!(cell_index(&t, &set), 0b01); // item 1 present, item 3 absent
        let t2: Vec<Item> = [3u32].iter().map(|&i| Item(i)).collect();
        assert_eq!(cell_index(&t2, &set), 0b10);
        assert_eq!(cell_index(&[], &set), 0);
    }

    #[test]
    fn horizontal_and_vertical_agree() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        let mut v = VerticalCounter::new(&d);
        for set in [
            Itemset::from_ids([0]),
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([0, 1, 2, 3]),
        ] {
            assert_eq!(
                h.minterm_counts(&set),
                v.minterm_counts(&set),
                "counter mismatch for {set}"
            );
        }
    }

    #[test]
    fn counts_sum_to_database_size() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        let counts = h.minterm_counts(&Itemset::from_ids([0, 1, 2]));
        assert_eq!(counts.iter().sum::<u64>() as usize, d.len());
    }

    #[test]
    fn horizontal_stats_track_scans() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        h.minterm_counts(&Itemset::from_ids([0]));
        h.minterm_counts(&Itemset::from_ids([1]));
        let s = h.stats();
        assert_eq!(s.db_scans, 2);
        assert_eq!(s.tables_built, 2);
        assert_eq!(s.transactions_visited, 2 * d.len() as u64);
    }

    #[test]
    fn batch_counting_is_one_scan() {
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut h = HorizontalCounter::new(&d);
        let batch = h.minterm_counts_batch(&sets);
        assert_eq!(h.stats().db_scans, 1);
        assert_eq!(h.stats().tables_built, 2);
        let mut h2 = HorizontalCounter::new(&d);
        assert_eq!(batch[0], h2.minterm_counts(&sets[0]));
        assert_eq!(batch[1], h2.minterm_counts(&sets[1]));
    }

    #[test]
    fn vertical_counts_index_build_as_one_scan() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        v.minterm_counts(&Itemset::from_ids([0, 1]));
        assert_eq!(v.stats().db_scans, 1);
        assert_eq!(v.stats().tables_built, 1);
        assert_eq!(v.stats().cells_counted, 4);
    }

    #[test]
    fn all_batch_paths_agree_with_singles() {
        let d = db();
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([3]),
        ];
        let expected: Vec<Vec<u64>> = {
            let mut h = HorizontalCounter::new(&d);
            sets.iter().map(|s| h.minterm_counts(s)).collect()
        };
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(h.minterm_counts_batch(&sets), expected, "horizontal batch");
        let mut v = VerticalCounter::new(&d);
        assert_eq!(v.minterm_counts_batch(&sets), expected, "vertical batch");
    }

    #[test]
    fn default_trait_batch_loops_over_singles() {
        // A counter that does not override the batch method gets the
        // per-candidate default.
        struct Wrapper<'a>(HorizontalCounter<'a>);
        impl MintermCounter for Wrapper<'_> {
            fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
                self.0.minterm_counts(set)
            }
            fn n_transactions(&self) -> usize {
                self.0.n_transactions()
            }
            fn stats(&self) -> CountingStats {
                self.0.stats()
            }
        }
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut w = Wrapper(HorizontalCounter::new(&d));
        let batch = w.minterm_counts_batch(&sets);
        assert_eq!(w.stats().db_scans, 2, "default batch is one scan per set");
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(batch, h.minterm_counts_batch(&sets));
    }

    #[test]
    fn stats_since_diffs_fieldwise() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        h.minterm_counts(&Itemset::from_ids([0]));
        let base = h.stats();
        h.minterm_counts(&Itemset::from_ids([0, 1]));
        let delta = h.stats().since(&base);
        assert_eq!(delta.tables_built, 1);
        assert_eq!(delta.db_scans, 1);
        assert_eq!(delta.cells_counted, 4);
        assert_eq!(delta.transactions_visited, d.len() as u64);
    }

    #[test]
    fn guarded_batch_with_noprobe_matches_unguarded() {
        let d = db();
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
        ];
        let mut h1 = HorizontalCounter::new(&d);
        let expected = h1.minterm_counts_batch(&sets);
        let mut h2 = HorizontalCounter::new(&d);
        assert_eq!(
            h2.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            expected
        );
        assert_eq!(h1.stats(), h2.stats());
        let mut v = VerticalCounter::new(&d);
        assert_eq!(
            v.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            expected
        );
    }

    #[test]
    fn stopped_probe_interrupts_horizontal_batch_and_flushes_stats() {
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut h = HorizontalCounter::new(&d);
        // The probe is pre-stopped, but the first check happens after the
        // first chunk; this db is tiny, so the scan completes. Use a
        // pre-stopped probe against the *vertical* per-class loop (which
        // checks before each class) for the immediate-stop case.
        let mut v = VerticalCounter::new(&d);
        let err = v
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::stopped())
            .unwrap_err();
        assert_eq!(err.tables_completed, 0);
        assert_eq!(v.stats().tables_built, 0, "no completed class, no tables");
        // Horizontal: budget of 1 cell trips after the first scan of the
        // batch completes (charge happens at scan end), so the whole
        // level's tables are still returned.
        let got = h
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::cells(1))
            .unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn vertical_budget_interrupt_keeps_completed_class_stats() {
        let d = db();
        // Two prefix classes: pairs ([] prefix is shared — one class) and
        // a triple class. A 1-cell budget stops after the first class.
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([1, 2, 3]),
        ];
        let mut v = VerticalCounter::new(&d);
        let err = v
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::cells(1))
            .unwrap_err();
        assert!(err.tables_completed >= 1, "first class completed");
        assert_eq!(v.stats().tables_built, err.tables_completed);
        assert_eq!(v.stats().cells_counted, err.cells_completed);
    }

    #[test]
    fn vertical_degrades_to_horizontal_under_arena_pressure() {
        struct TinyArena;
        impl CountProbe for TinyArena {
            fn should_stop(&self) -> bool {
                false
            }
            fn charge(&self, _cells: u64) -> bool {
                false
            }
            fn arena_budget_bytes(&self) -> Option<usize> {
                Some(1)
            }
        }
        let d = db();
        let pairs = vec![Itemset::from_ids([0, 1])];
        let triples = vec![Itemset::from_ids([0, 1, 2])];
        let mut v = VerticalCounter::new(&d);
        // Pairs need no scratch arena: still vertical.
        v.minterm_counts_batch_guarded(&pairs, &TinyArena).unwrap();
        assert!(!v.is_degraded());
        // A triple needs one scratch depth > 1 byte: degrade, answer
        // horizontally, and stay degraded.
        let got = v
            .minterm_counts_batch_guarded(&triples, &TinyArena)
            .unwrap();
        assert!(v.is_degraded());
        assert_eq!(v.stats().degraded_batches, 1);
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(got, h.minterm_counts_batch(&triples));
        v.minterm_counts_batch_guarded(&pairs, &TinyArena).unwrap();
        assert_eq!(v.stats().degraded_batches, 2, "degradation is sticky");
    }
}
