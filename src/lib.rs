//! # ccs — constrained correlated set mining
//!
//! A production-quality Rust reproduction of *Efficient Mining of
//! Constrained Correlated Sets* (Grahne, Lakshmanan & Wang, ICDE 2000):
//! chi-squared correlation mining à la Brin–Motwani–Silverstein, extended
//! with a constraint framework (monotone / anti-monotone / succinct) and
//! the four algorithms BMS+, BMS++, BMS*, BMS** for the two answer-set
//! semantics `VALID_MIN` and `MIN_VALID`.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`itemset`] — items, itemsets, transaction databases, tid-sets,
//!   candidate generation,
//! * [`stats`] — chi-squared machinery and contingency tables,
//! * [`constraints`] — the constraint language, classification, and
//!   succinctness machinery,
//! * [`datagen`] — the paper's two synthetic data generators,
//! * [`core`] — the mining algorithms,
//! * [`query`] — a textual query language,
//! * [`dataset`] — line-oriented on-disk text formats for the `ccs` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use ccs::prelude::*;
//!
//! // A small market-basket database over 4 items: items 0 and 1 always
//! // co-occur; 2 and 3 are independent fill.
//! let db = TransactionDb::from_ids(4, (0..40).map(|i| {
//!     let mut t = vec![];
//!     if i % 2 == 0 { t.extend([0, 1]); }
//!     if i % 3 == 0 { t.push(2); }
//!     if i % 5 == 0 { t.push(3); }
//!     t
//! }));
//! let attrs = AttributeTable::with_identity_prices(4);
//!
//! let query = CorrelationQuery {
//!     params: MiningParams { support_fraction: 0.1, ..MiningParams::paper() },
//!     constraints: ConstraintSet::new().and(Constraint::max_le("price", 3.0)),
//! };
//! let mut session = MiningSession::new(&db, &attrs);
//! let outcome = session.mine(&query, &MineRequest::new(Algorithm::BmsPlusPlus)).unwrap();
//! assert!(outcome.result.contains(&Itemset::from_ids([0, 1])));
//! ```

pub mod dataset;

pub use ccs_constraints as constraints;
pub use ccs_core as core;
pub use ccs_datagen as datagen;
pub use ccs_itemset as itemset;
pub use ccs_query as query;
pub use ccs_stats as stats;

/// One-stop imports for applications.
pub mod prelude {
    pub use ccs_constraints::{
        analyze, analyze_for_measure, analyze_spanned, AggFn, AttributeTable, Cmp, Constraint,
        ConstraintSet, Monotonicity, QueryAnalysis, QueryVerdict, Span,
    };
    pub use ccs_core::{
        discover_causality, fingerprint_db, mine_on, read_checkpoint_file, resume_on,
        solution_space, write_checkpoint_file, Algorithm, AutoRoute, CausalAnalysis, CausalFinding,
        Checkpoint, CheckpointCadence, CheckpointError, CheckpointPolicy, CheckpointReport,
        CheckpointSink, CheckpointStatus, Completion, CorrelationQuery, CountingStrategy,
        DbFingerprint, FileSink, GuardLimits, MemorySink, MineOutcome, MineRequest, MiningError,
        MiningMetrics, MiningParams, MiningResult, MiningSession, ResumeState, RunGuard, Semantics,
        SolutionSpace, TruncationReason,
    };
    pub use ccs_datagen::{generate_quest, generate_rules, QuestParams, RuleParams};
    pub use ccs_itemset::{Item, Itemset, TransactionDb};
    pub use ccs_query::{parse_constraints, parse_query, ParsedQuery};
    pub use ccs_stats::{
        ContingencyTable, Measure, MeasureContext, MeasureError, MonotonicityClass,
    };
}
