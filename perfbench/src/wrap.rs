//! Timing wrappers around two layer boundaries the library lets a caller
//! own: the counter handed to `mine_on`, and the checkpoint sink.

use std::hint::black_box;
use std::io;
use std::sync::Arc;

use ccs::core::{CheckpointSink, CountingStrategy};
use ccs::itemset::{
    BatchInterrupted, CountProbe, CountingStats, Itemset, MintermCounter, TransactionDb,
};
use ccs::stats::{ContingencyTable, MeasureContext};

use crate::trace::Tracer;

/// Builds the counter for a resolved strategy, as the session does for
/// the default thread and shard settings. `None` when this build of the
/// benchmark does not know the strategy.
pub fn build_counter(
    db: &TransactionDb,
    strategy: CountingStrategy,
) -> Option<Box<dyn MintermCounter + '_>> {
    #[allow(unused_imports)]
    use ccs::itemset as c;
    let counter: Box<dyn MintermCounter + '_> = match strategy {
        #[cfg(ccs_counter_horizontal)]
        CountingStrategy::Horizontal => Box::new(c::HorizontalCounter::new(db)),
        #[cfg(ccs_counter_vertical)]
        CountingStrategy::Vertical => Box::new(c::VerticalCounter::new(db)),
        #[cfg(ccs_counter_parallel)]
        CountingStrategy::Parallel => Box::new(c::ParallelCounter::with_available_parallelism(db)),
        #[cfg(ccs_counter_vertical_par)]
        CountingStrategy::VerticalPar => Box::new(c::ParallelVerticalCounter::new(db)),
        #[cfg(ccs_counter_sharded)]
        CountingStrategy::Sharded => Box::new(c::ShardedVerticalCounter::new(db)),
        #[cfg(ccs_counter_fptree)]
        CountingStrategy::FpTree => Box::new(c::FpTreeCounter::new(db)),
        #[allow(unreachable_patterns)]
        _ => return None,
    };
    Some(counter)
}

/// A [`MintermCounter`] that times every counting call as a
/// `counting.batch` span and then replays each returned table through
/// the run's [`MeasureContext`] under a separate `stats.verdict` span.
///
/// Every trait method is forwarded explicitly: inheriting the per-set
/// defaults would silently drop the inner counter's batch sharing and
/// guarded interruption.
pub struct TimedCounter<'a> {
    inner: Box<dyn MintermCounter + 'a>,
    tracer: Arc<Tracer>,
    measure: Option<MeasureContext>,
}

impl<'a> TimedCounter<'a> {
    pub fn new(inner: Box<dyn MintermCounter + 'a>, tracer: Arc<Tracer>) -> Self {
        TimedCounter {
            inner,
            tracer,
            measure: None,
        }
    }

    /// The measure the verdict replay judges tables with (the current
    /// request's).
    pub fn set_measure(&mut self, measure: MeasureContext) {
        self.measure = Some(measure);
    }

    fn tally(&self, before: CountingStats, sets: usize) {
        let delta = self.inner.stats().since(&before);
        self.tracer.count(|t| {
            t.batches += 1;
            t.sets += sets as u64;
            t.counted += delta;
        });
    }

    fn replay(&self, sets: &[Itemset], tables: &[Vec<u64>]) {
        let Some(measure) = &self.measure else {
            return;
        };
        let _span = self.tracer.span("stats.verdict");
        for (set, counts) in sets.iter().zip(tables) {
            let table = ContingencyTable::from_counts(set.clone(), counts.clone());
            black_box(measure.verdict(&table));
        }
        self.tracer.count(|t| t.verdicts += sets.len() as u64);
    }
}

impl MintermCounter for TimedCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let before = self.inner.stats();
        let counts = {
            let _span = self.tracer.span("counting.batch");
            self.inner.minterm_counts(set)
        };
        self.tally(before, 1);
        self.replay(std::slice::from_ref(set), std::slice::from_ref(&counts));
        counts
    }

    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        let before = self.inner.stats();
        let tables = {
            let _span = self.tracer.span("counting.batch");
            self.inner.minterm_counts_batch(sets)
        };
        self.tally(before, sets.len());
        self.replay(sets, &tables);
        tables
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let before = self.inner.stats();
        let tables = {
            let _span = self.tracer.span("counting.batch");
            self.inner.minterm_counts_batch_guarded(sets, probe)
        };
        self.tally(before, sets.len());
        if let Ok(tables) = &tables {
            self.replay(sets, tables);
        }
        tables
    }

    fn n_transactions(&self) -> usize {
        self.inner.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.inner.stats()
    }
}

/// A [`CheckpointSink`] that times every commit as a `persist.commit`
/// span and counts commits and bytes.
pub struct TimedSink<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TimedSink { inner, tracer }
    }
}

impl<S: CheckpointSink> CheckpointSink for TimedSink<S> {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        let result = {
            let _span = self.tracer.span("persist.commit");
            self.inner.commit(bytes)
        };
        self.tracer.count(|t| {
            t.commits += 1;
            t.commit_bytes += bytes.len() as u64;
            t.commit_errors += u64::from(result.is_err());
        });
        result
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work_counters;
    use ccs::core::{
        mine_on, Algorithm, CheckpointCadence, CheckpointPolicy, CorrelationQuery, MemorySink,
        MineRequest, MiningParams,
    };
    use ccs::datagen::{generate_quest, QuestParams};
    use ccs::prelude::{AttributeTable, Constraint, ConstraintSet};

    #[test]
    fn wrapped_and_unwrapped_runs_agree_exactly() {
        let db = generate_quest(&QuestParams::small(3000, 24, 11));
        let attrs = AttributeTable::with_identity_prices(db.n_items());
        let strategies = [
            CountingStrategy::Auto.resolve(&db, None, None),
            CountingStrategy::Vertical,
            CountingStrategy::FpTree,
        ];
        let queries = [
            ConstraintSet::new().and(Constraint::max_le("price", 18.0)),
            ConstraintSet::new().and(Constraint::max_ge("price", 12.0)),
        ];
        let tracer = Arc::new(Tracer::new());
        let mut checked = 0;
        for strategy in strategies {
            for constraints in &queries {
                let query = CorrelationQuery {
                    params: MiningParams {
                        support_fraction: 0.02,
                        ..MiningParams::paper()
                    },
                    constraints: constraints.clone(),
                };
                for algorithm in Algorithm::paper_algorithms() {
                    let request = |sink: Box<dyn CheckpointSink>| {
                        MineRequest::new(algorithm)
                            .checkpoint(CheckpointPolicy::new(sink, CheckpointCadence::EveryLevel))
                    };
                    let Some(mut plain) = build_counter(&db, strategy) else {
                        continue;
                    };
                    let bare = mine_on(
                        &db,
                        &attrs,
                        &query,
                        &request(Box::<MemorySink>::default()),
                        &mut plain,
                    )
                    .unwrap();
                    let mut timed =
                        TimedCounter::new(build_counter(&db, strategy).unwrap(), tracer.clone());
                    timed.set_measure(query.params.measure_context().unwrap());
                    let sink = TimedSink::new(MemorySink::default(), tracer.clone());
                    let wrapped =
                        mine_on(&db, &attrs, &query, &request(Box::new(sink)), &mut timed).unwrap();
                    assert_eq!(bare.answers, wrapped.answers, "{algorithm:?} {strategy:?}");
                    assert_eq!(bare.metrics.counting(), wrapped.metrics.counting());
                    assert_eq!(
                        work_counters(&bare.metrics),
                        work_counters(&wrapped.metrics)
                    );
                    assert_eq!(bare.completion, wrapped.completion);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 16, "only {checked} runs compared");
        let tally = tracer.tally();
        assert!(tally.batches > 0 && tally.verdicts > 0 && tally.commits > 0);
        assert!(tracer.layers().contains_key("counting.batch"));
    }
}
