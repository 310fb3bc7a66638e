//! Shared candidate evaluation machinery for the level-wise miners.
//!
//! Two batching layers live here:
//!
//! * [`Engine::evaluate_level`] hands a whole level of candidates to the
//!   counting layer at once ([`MintermCounter::minterm_counts_batch`]),
//!   so a horizontal strategy pays one scan per *level* rather than per
//!   *candidate*, the vertical strategy can share prefix intersections
//!   across candidates, and the FP-tree strategy can memoize conditional
//!   projections across the level.
//! * A verdict memo-cache keyed by [`Itemset`]: once a set has been
//!   judged, any later evaluation — typically a BMS*/BMS** border sweep
//!   revisiting sets the BMS phase already classified — is answered from
//!   the cache without rebuilding the contingency table. Hits are
//!   reported via [`CountingStats::cache_hits`].

use std::collections::{HashMap, HashSet};

use ccs_itemset::{CountingStats, Itemset, MintermCounter};
use ccs_stats::{ContingencyTable, MeasureContext};

use crate::guard::{RunGuard, TruncationReason};
use crate::params::MiningParams;

/// The verdict on one candidate set after building its contingency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Verdict {
    /// CT-support test outcome.
    pub ct_supported: bool,
    /// Correlation test outcome under the run's measure.
    pub correlated: bool,
    /// The raw measure statistic (the chi-squared statistic under the
    /// paper's measure).
    pub statistic: f64,
}

/// Wraps a counting strategy with the query's statistical tests and the
/// precomputed measure criterion.
///
/// The counter is held as a trait object so one concrete `Engine` type
/// serves every strategy — which in turn lets the levelwise kernel and
/// the policy trait stay non-generic.
pub(crate) struct Engine<'a> {
    counter: &'a mut dyn MintermCounter,
    /// Absolute cell-support threshold.
    pub s_abs: u64,
    /// CT-support cell fraction.
    pub p: f64,
    /// The run's validated measure criterion. For χ² the critical value
    /// is the df = 1 quantile at *every* level, following Brin et al.
    /// (and §2.1 of the paper: "a degree of freedom, which is always 1
    /// for boolean variables") — the fixed cutoff that makes being
    /// correlated upward closed; see the fidelity notes in DESIGN.md.
    ctx: MeasureContext,
    /// Memoised verdicts: a set is counted at most once per engine.
    cache: HashMap<Itemset, Verdict>,
    /// Evaluations answered from `cache` without building a table.
    cache_hits: u64,
    /// The run's resource governor, consulted at level boundaries and
    /// passed into the counting layer as its interruption probe.
    guard: RunGuard,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(counter: &'a mut dyn MintermCounter, params: &MiningParams) -> Self {
        Self::with_guard(counter, params, RunGuard::unlimited())
    }

    pub(crate) fn with_guard(
        counter: &'a mut dyn MintermCounter,
        params: &MiningParams,
        guard: RunGuard,
    ) -> Self {
        let n = counter.n_transactions();
        let ctx = match params.measure_context() {
            Ok(ctx) => ctx,
            // Every mining entry point validates params first, which
            // performs this same construction; re-surfacing the message
            // keeps the engine usable on its own.
            Err(e) => panic!("confidence: {e}"),
        };
        Engine {
            counter,
            s_abs: params.support_abs(n),
            p: params.ct_fraction,
            ctx,
            cache: HashMap::new(),
            cache_hits: 0,
            guard,
        }
    }

    /// The guard governing this engine's run.
    pub(crate) fn guard(&self) -> &RunGuard {
        &self.guard
    }

    /// The run's validated measure criterion.
    pub(crate) fn measure_context(&self) -> &MeasureContext {
        &self.ctx
    }

    /// Applies both tests to an already-built contingency table.
    fn judge(&mut self, table: &ContingencyTable) -> Verdict {
        let ct_supported = table.is_ct_supported(self.s_abs, self.p);
        let statistic = self.ctx.statistic(table);
        let correlated = statistic >= self.ctx.critical_value();
        Verdict {
            ct_supported,
            correlated,
            statistic,
        }
    }

    /// Evaluates one candidate: answers from the memo-cache if the set
    /// was judged before, otherwise builds its contingency table (one
    /// accounted table) and caches the verdict. Absorb
    /// [`Engine::counting_stats`] into the run's metrics once at the end.
    pub(crate) fn evaluate(&mut self, set: &Itemset) -> Verdict {
        debug_assert!(set.len() >= 2, "tests are degenerate below pairs");
        if let Some(&v) = self.cache.get(set) {
            self.cache_hits += 1;
            return v;
        }
        let table = ContingencyTable::build(&mut *self.counter, set);
        let v = self.judge(&table);
        self.cache.insert(table.into_itemset(), v);
        v
    }

    /// Evaluates a whole level of candidates in one counting batch.
    ///
    /// Sets with cached verdicts (and in-batch duplicates) are answered
    /// from the memo-cache; the rest go to the counting layer as a single
    /// guarded [`MintermCounter::minterm_counts_batch_guarded`] call, so
    /// horizontal strategies pay one scan per level and the vertical
    /// strategy shares prefix work across candidates. Verdicts come back
    /// in input order.
    ///
    /// This is also a guard checkpoint — one at entry (the level
    /// boundary) and, via the probe, inside the counting loops. On a
    /// trip, the batch's partial counts are discarded (its completed work
    /// is still in the statistics) and the truncation reason is returned;
    /// the caller abandons the level and reports a truncated result. With
    /// an unarmed guard this never fails.
    pub(crate) fn evaluate_level(
        &mut self,
        sets: &[Itemset],
    ) -> Result<Vec<Verdict>, TruncationReason> {
        self.guard.checkpoint()?;
        let mut fresh: Vec<Itemset> = Vec::new();
        let mut queued: HashSet<&Itemset> = HashSet::new();
        for set in sets {
            debug_assert!(set.len() >= 2, "tests are degenerate below pairs");
            if self.cache.contains_key(set) || !queued.insert(set) {
                self.cache_hits += 1;
            } else {
                fresh.push(set.clone());
            }
        }
        if !fresh.is_empty() {
            let batch = self
                .counter
                .minterm_counts_batch_guarded(&fresh, &self.guard);
            let counts = match batch {
                Ok(counts) => counts,
                // A counter only abandons a batch when the probe asks it
                // to. Re-running the checkpoint classifies the cause —
                // including a cancellation flag that was raised but not
                // yet converted into a trip; the fallback covers
                // misbehaving counters that interrupt unprompted.
                Err(_) => {
                    return Err(match self.guard.checkpoint() {
                        Err(reason) => reason,
                        Ok(()) => TruncationReason::WorkBudget,
                    })
                }
            };
            // Each fresh set moves through its table into the cache key:
            // one clone per set, the one into `fresh` above.
            for (set, cells) in fresh.into_iter().zip(counts) {
                let table = ContingencyTable::from_counts(set, cells);
                let v = self.judge(&table);
                self.cache.insert(table.into_itemset(), v);
            }
        }
        Ok(sets.iter().map(|s| self.cache[s]).collect())
    }

    /// Raw minterm counts for `set` (one accounted table), for callers
    /// that need the cells themselves (conditional-independence tests).
    pub(crate) fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.counter.minterm_counts(set)
    }

    /// Final counting statistics — the counting layer's numbers plus this
    /// engine's cache hits — to be absorbed into metrics once at the end
    /// of a run.
    pub(crate) fn counting_stats(&self) -> CountingStats {
        let mut stats = self.counter.stats();
        // ccs-lint: allow(counting-stats-merge-via-addassign, reason = "folds the engine's own hit counter into one field; not a stats-to-stats merge")
        stats.cache_hits += self.cache_hits;
        stats
    }
}
