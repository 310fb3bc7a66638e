//! Algorithm and counting-strategy vocabulary.
//!
//! The `mine*` / `resume*` free-function matrix that used to live here
//! grew a row per option axis (strategy × guard × counter × resume) and
//! was collapsed into the builder-style session API —
//! [`crate::session::MiningSession`] with a
//! [`crate::session::MineRequest`] — with one-release `#[deprecated]`
//! shims since removed.

use ccs_itemset::TransactionDb;

use crate::query::Semantics;

/// The mining algorithms of the paper, plus the exhaustive reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BMS+ — naive `VALID_MIN`: run BMS, filter by constraints.
    BmsPlus,
    /// BMS++ — constraint-pushing `VALID_MIN`.
    BmsPlusPlus,
    /// BMS* — naive `MIN_VALID`: run BMS, then sweep upward.
    BmsStar,
    /// BMS** — constraint-pushing `MIN_VALID`.
    BmsStarStar,
    /// Exhaustive enumeration (ground truth; accepts `avg` constraints;
    /// exponential — small universes only).
    Naive,
    /// Exhaustive enumeration under `MIN_VALID` semantics.
    NaiveMinValid,
}

impl Algorithm {
    /// The answer-set semantics the algorithm computes.
    pub fn semantics(self) -> Semantics {
        match self {
            Algorithm::BmsPlus | Algorithm::BmsPlusPlus | Algorithm::Naive => Semantics::ValidMin,
            Algorithm::BmsStar | Algorithm::BmsStarStar | Algorithm::NaiveMinValid => {
                Semantics::MinValid
            }
        }
    }

    /// All four level-wise algorithms of the paper, in presentation
    /// order.
    pub fn paper_algorithms() -> [Algorithm; 4] {
        [
            Algorithm::BmsPlus,
            Algorithm::BmsPlusPlus,
            Algorithm::BmsStar,
            Algorithm::BmsStarStar,
        ]
    }

    /// Short display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::BmsPlus => "BMS+",
            Algorithm::BmsPlusPlus => "BMS++",
            Algorithm::BmsStar => "BMS*",
            Algorithm::BmsStarStar => "BMS**",
            Algorithm::Naive => "naive",
            Algorithm::NaiveMinValid => "naive(MIN_VALID)",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How contingency tables are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountingStrategy {
    /// One database scan per table — the paper's cost model. Default.
    #[default]
    Horizontal,
    /// Tid-set intersections over a one-pass vertical index — the fast
    /// path (DESIGN.md ablation).
    Vertical,
    /// Pattern-growth counting over a compressed FP-tree: conditional
    /// projections are memoized across a batch, so a dense level pays
    /// one projection per header item instead of one tid-set
    /// intersection per candidate (DESIGN.md §6.4). Wins on dense,
    /// low-cardinality databases whose transactions collapse into few
    /// distinct profiles; degrades FpTree → Vertical → Horizontal
    /// under memory pressure.
    FpTree,
    /// Picks a concrete strategy from the database shape at mining
    /// time; see [`CountingStrategy::resolve`].
    Auto,
}

/// `Auto` routes to the FP-tree counter only when the item universe is
/// small enough that conditional projections stay compact…
const FPTREE_MAX_ITEMS: u32 = 512;
/// …and transactions are long enough that they collapse into shared
/// tree prefixes…
const FPTREE_MIN_AVG_LEN: f64 = 8.0;
/// …and the database is dense enough (avg transaction length / items)
/// that tid-set intersection pays per transaction for work the tree
/// answers per distinct profile.
const FPTREE_MIN_DENSITY: f64 = 0.2;

impl CountingStrategy {
    /// The names [`std::str::FromStr`] accepts, as error messages list
    /// them.
    pub const CHOICES: &'static str = "horizontal, vertical, fp-tree, auto";

    /// Resolves `Auto` to a concrete strategy from the database shape
    /// alone, so the same database resolves identically on every host.
    /// Non-`Auto` strategies return themselves. The two trailing
    /// arguments are ignored; they remain only so existing callers keep
    /// compiling.
    ///
    /// An empty database counts nothing (horizontal avoids even the
    /// index build); a database whose per-item bitmaps would be enormous
    /// *and* nearly empty (huge sparse universe) stays horizontal. Dense
    /// low-cardinality shapes — a small item universe with long
    /// transactions, where baskets collapse into few distinct profiles —
    /// route to the FP-tree pattern-growth counter, whose cost tracks
    /// distinct profiles rather than transactions (DESIGN.md §6.4).
    /// Everything else uses the vertical index, which dominates
    /// horizontal scanning by orders of magnitude on the benchmark
    /// shapes (`results/BENCH_counting.json`).
    pub fn resolve(
        self,
        db: &TransactionDb,
        _threads: Option<usize>,
        _shards: Option<usize>,
    ) -> CountingStrategy {
        if self != CountingStrategy::Auto {
            return self;
        }
        let n = db.len();
        if n == 0 {
            return CountingStrategy::Horizontal;
        }
        // Vertical index footprint: one n-bit bitmap per item.
        let bitmap_bytes = (db.n_items() as usize).saturating_mul(n.div_ceil(64) * 8);
        let density = db.avg_transaction_len() / f64::from(db.n_items().max(1));
        if bitmap_bytes > (1 << 30) && density < 0.005 {
            return CountingStrategy::Horizontal;
        }
        if db.n_items() <= FPTREE_MAX_ITEMS
            && db.avg_transaction_len() >= FPTREE_MIN_AVG_LEN
            && density >= FPTREE_MIN_DENSITY
        {
            return CountingStrategy::FpTree;
        }
        CountingStrategy::Vertical
    }

    /// The CLI-facing name (also what [`std::str::FromStr`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            CountingStrategy::Horizontal => "horizontal",
            CountingStrategy::Vertical => "vertical",
            CountingStrategy::FpTree => "fp-tree",
            CountingStrategy::Auto => "auto",
        }
    }
}

impl std::fmt::Display for CountingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for CountingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "horizontal" => Ok(CountingStrategy::Horizontal),
            "vertical" => Ok(CountingStrategy::Vertical),
            "fp-tree" | "fptree" => Ok(CountingStrategy::FpTree),
            "auto" => Ok(CountingStrategy::Auto),
            "parallel" | "vertical-par" | "vertical_par" | "sharded" => Err(format!(
                "counting strategy '{s}' was removed (it never beat 'vertical'); \
                 expected one of {}",
                CountingStrategy::CHOICES
            )),
            other => Err(format!(
                "unknown counting strategy '{other}' (expected one of {})",
                CountingStrategy::CHOICES
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::query::CorrelationQuery;
    use crate::session::{MineRequest, MiningSession};
    use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..50 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 5 == 0 {
                t.push(2);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(3, txns)
    }

    fn query() -> CorrelationQuery {
        CorrelationQuery {
            params: MiningParams {
                confidence: 0.9,
                support_fraction: 0.1,
                max_level: 4,
                ..MiningParams::paper()
            },
            constraints: ConstraintSet::new().and(Constraint::max_le("price", 3.0)),
        }
    }

    #[test]
    fn semantics_mapping() {
        assert_eq!(Algorithm::BmsPlus.semantics(), Semantics::ValidMin);
        assert_eq!(Algorithm::BmsPlusPlus.semantics(), Semantics::ValidMin);
        assert_eq!(Algorithm::BmsStar.semantics(), Semantics::MinValid);
        assert_eq!(Algorithm::BmsStarStar.semantics(), Semantics::MinValid);
    }

    #[test]
    fn all_algorithms_agree_on_anti_monotone_query() {
        // Theorem 1.2: with only anti-monotone constraints the two
        // semantics coincide, so all four paper algorithms agree.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let q = query();
        let mut session = MiningSession::new(&db, &attrs);
        let results: Vec<_> = Algorithm::paper_algorithms()
            .iter()
            .map(|&a| {
                session
                    .mine(&q, &MineRequest::new(a))
                    .unwrap()
                    .result
                    .answers
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    /// A database with two overlapping correlated modules over 8 items,
    /// so mining levels carry many same-prefix candidates: the
    /// level-batched evaluation paths (one-scan horizontal batch,
    /// prefix-sharing vertical batch, projection-memoized fp-tree batch)
    /// and the verdict memo-cache all see real traffic.
    fn modular_db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..120u32 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0, 1, 2, 3]);
            }
            if i % 3 == 0 {
                t.extend([3, 4, 5, 6]);
            }
            if i % 5 == 0 {
                t.push(7);
            }
            if i % 7 == 0 {
                t.extend([1, 5]);
            }
            t.sort_unstable();
            t.dedup();
            txns.push(t);
        }
        TransactionDb::from_ids(8, txns)
    }

    #[test]
    fn all_counting_strategies_agree() {
        // Every algorithm routes candidates through the level-batched
        // `Engine::evaluate_level`, so this compares the horizontal
        // batch, the prefix-sharing vertical batch, and the fp-tree
        // batch — plus the memo-cache in front of all three — against
        // each other on both databases, byte for byte.
        let attrs = AttributeTable::with_identity_prices(8);
        let q = query();
        for db in [db(), modular_db()] {
            let mut session = MiningSession::new(&db, &attrs);
            for &a in &Algorithm::paper_algorithms() {
                let h = session
                    .mine(&q, &MineRequest::new(a))
                    .unwrap()
                    .result
                    .answers;
                for strategy in [
                    CountingStrategy::Vertical,
                    CountingStrategy::FpTree,
                    CountingStrategy::Auto,
                ] {
                    let v = session
                        .mine(&q, &MineRequest::new(a).strategy(strategy))
                        .unwrap()
                        .result
                        .answers;
                    assert_eq!(h, v, "{strategy:?} mismatch for {a}");
                }
            }
        }
    }

    #[test]
    fn auto_resolves_from_database_shape_alone() {
        use CountingStrategy::*;
        let small = db();
        let empty = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        let big = TransactionDb::from_ids(4, (0..5000u32).map(|t| vec![t % 4, (t + 1) % 4]));
        let huge = TransactionDb::from_ids(4, (0..70_000u32).map(|t| vec![t % 4, (t + 1) % 4]));
        // Dense low-cardinality: long transactions over a small item
        // universe collapse into few profiles, so pattern growth wins.
        let dense = TransactionDb::from_ids(
            33,
            (0..5000u32).map(|t| (0..16).map(|j| (t % 3) + 2 * j).collect::<Vec<_>>()),
        );
        for (db, expected) in [
            (&small, Vertical),
            (&empty, Horizontal),
            (&big, Vertical),
            (&huge, Vertical),
            (&dense, FpTree),
        ] {
            // The thread and shard arguments never change the route.
            for threads in [None, Some(1), Some(2), Some(8)] {
                for shards in [None, Some(3)] {
                    assert_eq!(Auto.resolve(db, threads, shards), expected);
                }
            }
        }
        // Concrete strategies are fixed points.
        for s in [Horizontal, Vertical, FpTree] {
            assert_eq!(s.resolve(&small, None, None), s);
        }
    }

    #[test]
    fn strategy_names_round_trip_through_fromstr() {
        use CountingStrategy::*;
        for s in [Horizontal, Vertical, FpTree, Auto] {
            assert_eq!(s.name().parse::<CountingStrategy>().unwrap(), s);
        }
        assert!("simd".parse::<CountingStrategy>().is_err());
        assert_eq!(FpTree.to_string(), "fp-tree");
        // The underscore-free alias parses too.
        assert_eq!("fptree".parse::<CountingStrategy>().unwrap(), FpTree);
        // The removed strategies are rejected with the surviving choices.
        for removed in ["parallel", "vertical-par", "vertical_par", "sharded"] {
            let err = removed.parse::<CountingStrategy>().unwrap_err();
            assert!(err.contains(removed), "{err}");
            assert!(err.contains(CountingStrategy::CHOICES), "{err}");
        }
    }

    #[test]
    fn unsatisfiable_query_short_circuits_without_counting() {
        // `max ≤ 1 & min ≥ 2` is provably empty, so every algorithm
        // returns a complete empty answer with zero counting work.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let mut q = query();
        q.constraints = ConstraintSet::new()
            .and(Constraint::max_le("price", 1.0))
            .and(Constraint::min_ge("price", 2.0));
        let mut session = MiningSession::new(&db, &attrs);
        for &a in &Algorithm::paper_algorithms() {
            let r = session.mine(&q, &MineRequest::new(a)).unwrap().result;
            assert!(r.answers.is_empty(), "{a} returned answers");
            assert_eq!(r.completion, crate::guard::Completion::Complete);
            assert_eq!(r.metrics.cells_counted, 0);
            assert_eq!(r.metrics.db_scans, 0);
        }
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(Algorithm::BmsPlus.name(), "BMS+");
        assert_eq!(Algorithm::BmsStarStar.to_string(), "BMS**");
    }

    #[test]
    fn default_request_counts_horizontally() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let via_session = MiningSession::new(&db, &attrs)
            .mine(&query(), &MineRequest::new(Algorithm::BmsPlusPlus))
            .unwrap();
        assert_eq!(via_session.strategy, CountingStrategy::Horizontal);
    }
}
