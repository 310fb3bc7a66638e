//! # ccs-core — constrained correlated set mining
//!
//! A from-scratch Rust implementation of *Efficient Mining of Constrained
//! Correlated Sets* (Grahne, Lakshmanan & Wang, ICDE 2000): the four
//! constrained variants of the Brin–Motwani–Silverstein correlation miner,
//! the baseline itself, and an exhaustive reference.
//!
//! | Algorithm | Answer set | Constraint pushing |
//! |-----------|------------|--------------------|
//! | [`bms`] (baseline) | minimal correlated + CT-supported | — |
//! | [`bms_plus`] | `VALID_MIN` | none (post-filter) |
//! | [`bms_plus_plus`] | `VALID_MIN` | full (§3.1) |
//! | [`bms_star`] | `MIN_VALID` | none (BMS + upward sweep) |
//! | [`bms_star_star`] | `MIN_VALID` | full (§3.2) |
//! | [`naive`] | either | exhaustive ground truth |
//!
//! Start from [`MiningSession`]: build a [`MineRequest`] naming an
//! algorithm (plus counting strategy and resource guard, if you need
//! them) and get a [`MineOutcome`] back. All algorithms run on one
//! level-wise kernel (`kernel`), differing only in their policy.
//! [`border`] computes both borders of the solution space — the
//! complete characterization §5 of the paper calls for.

#![warn(missing_docs)]

pub mod bms;
pub mod bms_plus;
pub mod bms_plus_plus;
pub mod bms_star;
pub mod bms_star_star;
pub mod border;
pub mod causality;
mod engine;
pub mod guard;
mod kernel;
pub mod metrics;
pub mod miner;
pub mod naive;
pub mod params;
pub mod persist;
mod prep;
pub mod query;
pub mod session;

pub use bms::{run_bms, BmsOutput};
pub use bms_plus::run_bms_plus;
pub use bms_plus_plus::run_bms_plus_plus;
pub use bms_star::run_bms_star;
pub use bms_star_star::run_bms_star_star;
pub use border::{solution_space, SolutionSpace};
pub use causality::{discover_causality, CausalAnalysis, CausalFinding};
pub use guard::{Completion, GuardLimits, ResumeState, RunGuard, TruncationReason};
pub use metrics::MiningMetrics;
pub use miner::{Algorithm, AutoRoute, CountingStrategy};
pub use naive::{run_naive, NAIVE_MAX_ITEMS};
pub use params::MiningParams;
pub use persist::{
    fingerprint_db, load_checkpoint, read_checkpoint_file, save_checkpoint, write_checkpoint_file,
    Checkpoint, CheckpointCadence, CheckpointError, CheckpointPolicy, CheckpointReport,
    CheckpointSink, CheckpointStatus, DbFingerprint, FileSink, MemorySink,
};
pub use query::{CorrelationQuery, MiningError, MiningResult, Semantics};
pub use session::{mine_on, resume_on, MineOutcome, MineRequest, MiningSession};
