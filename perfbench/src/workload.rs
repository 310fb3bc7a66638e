//! The benchmark's workloads: a Quest database shape, a support
//! threshold, a pair of algorithms that must agree, and a seeded stream
//! of textual queries. Why each one exists, and which layer it isolates,
//! is in README.md beside this crate.
//!
//! Each workload's Quest pattern pool is fixed: `ccs-datagen` generates
//! twice the workload's baskets from [`POOL_SEED`], and the run's seed
//! draws the baskets the run mines from that pool. Seeds then vary the
//! data without varying how much lattice the workload has; drawing the
//! pool itself from the seed moves the table count of one request by up
//! to 2.5x between seeds.

use ccs::core::{Algorithm, MiningParams};
use ccs::datagen::{generate_quest, QuestParams};
use ccs::itemset::TransactionDb;

/// The Quest seed of every workload's pattern pool.
pub const POOL_SEED: u64 = 7;

pub struct Workload {
    pub name: &'static str,
    /// Quest shape: baskets × items, and the generator's mean basket
    /// length (before duplicate items are dropped).
    pub baskets: usize,
    pub items: u32,
    pub basket_len: f64,
    pub support: f64,
    /// Every query is answered by both; the answer sets must match.
    pub pair: [Algorithm; 2],
    /// One warm session per pass (an interactive loop) instead of one
    /// fresh session per request (a `ccs mine` run).
    pub warm_session: bool,
    /// Stamp a checkpoint file at every level.
    pub checkpoint: bool,
    /// Seconds one untraced pass over the request list takes on the
    /// reference host (2-vCPU Xeon VM), between its quiet stretches and
    /// its busy ones, which are up to 1.5x slower. A run makes
    /// `--seconds / pass_s` passes, so its sample counts do not depend
    /// on how fast the code under test is, and a run in a busy stretch
    /// overruns `--seconds` by about a quarter at most.
    pub pass_s: f64,
    queries: fn(u32, &mut SplitMix64) -> Vec<String>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lattice-sparse",
        baskets: 50_000,
        items: 80,
        basket_len: 10.0,
        support: 0.02,
        pair: [Algorithm::BmsPlus, Algorithm::BmsPlusPlus],
        warm_session: false,
        checkpoint: true,
        pass_s: 1.9,
        queries: lattice_sparse_queries,
    },
    Workload {
        name: "dense-deep",
        baskets: 10_000,
        items: 30,
        basket_len: 12.0,
        support: 0.05,
        pair: [Algorithm::BmsStar, Algorithm::BmsStarStar],
        warm_session: false,
        checkpoint: false,
        pass_s: 1.6,
        queries: dense_deep_queries,
    },
    Workload {
        name: "session-explore",
        baskets: 20_000,
        items: 54,
        basket_len: 10.0,
        support: 0.02,
        pair: [Algorithm::BmsPlusPlus, Algorithm::BmsPlus],
        warm_session: true,
        checkpoint: false,
        pass_s: 1.9,
        queries: session_explore_queries,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The pattern pool: twice the workload's baskets.
    pub fn pool(&self) -> QuestParams {
        QuestParams {
            avg_transaction_len: self.basket_len,
            ..QuestParams::small(2 * self.baskets, self.items, POOL_SEED)
        }
    }

    /// The run's database: `baskets` distinct baskets of the pool, drawn
    /// by `seed`.
    pub fn database(&self, seed: u64) -> TransactionDb {
        let pool = generate_quest(&self.pool());
        let mut order: Vec<usize> = (0..pool.len()).collect();
        let mut rng = SplitMix64(seed);
        let n = self.baskets.min(order.len());
        for i in 0..n {
            let j = i + (rng.next_u64() % (order.len() - i) as u64) as usize;
            order.swap(i, j);
        }
        TransactionDb::new(
            pool.n_items(),
            order[..n].iter().map(|&t| pool.transaction(t).to_vec()),
        )
    }

    /// Passes per mode for a run of `seconds` (at least `min`).
    pub fn passes(&self, seconds: u64, min: usize) -> usize {
        ((seconds as f64 / self.pass_s).round() as usize).max(min)
    }

    pub fn params(&self) -> MiningParams {
        MiningParams {
            support_fraction: self.support,
            ..MiningParams::paper()
        }
    }

    /// The query texts of one pass, derived from `seed` alone.
    pub fn queries(&self, seed: u64) -> Vec<String> {
        let mut rng = SplitMix64(!seed);
        (self.queries)(self.items, &mut rng)
    }
}

fn price(items: u32, fraction: f64) -> u32 {
    ((f64::from(items) * fraction).round() as u32).clamp(1, items)
}

/// VALID_MIN under one succinct anti-monotone constraint, from tight to
/// unconstrained: BMS++ pushes it into candidate generation, BMS+
/// filters afterwards.
fn lattice_sparse_queries(items: u32, _rng: &mut SplitMix64) -> Vec<String> {
    [0.6, 0.8, 1.0]
        .iter()
        .map(|&f| {
            format!(
                "correlated & ct_supported & max(price) <= {}",
                price(items, f)
            )
        })
        .collect()
}

/// MIN_VALID under `max(price) <= t`, on both sides of the BMS*/BMS**
/// crossover: at tight thresholds BMS** builds about as many tables as
/// BMS*, at loose ones up to 25 times as many.
fn dense_deep_queries(items: u32, _rng: &mut SplitMix64) -> Vec<String> {
    [0.4, 0.5, 0.6, 0.7, 0.8]
        .iter()
        .map(|&f| {
            format!(
                "correlated & ct_supported & max(price) <= {}",
                price(items, f)
            )
        })
        .collect()
}

/// An analyst's exploration loop: every constraint family the analyzer
/// plans differently, in a seeded order, each with a threshold the seed
/// moves by at most one price unit (so seeds vary the stream without
/// changing how much work it is).
fn session_explore_queries(items: u32, rng: &mut SplitMix64) -> Vec<String> {
    let mut p = |f: f64| {
        let jitter = (rng.next_u64() % 3) as f64 - 1.0;
        price(items, f + jitter / f64::from(items))
    };
    let mut stream = vec![
        format!("max(price) <= {}", p(0.65)),
        format!("min(price) >= {}", p(0.15)),
        format!("sum(price) <= {}", p(1.35)),
        format!("max(price) >= {}", p(0.45)),
        format!("min(price) <= {}", p(0.4)),
        format!("sum(price) >= {}", p(0.9)),
        format!("max(price) <= {} & sum(price) >= {}", p(0.75), p(0.55)),
        format!("min(price) >= {} & max(price) <= {}", p(0.12), p(0.85)),
    ];
    for i in (1..stream.len()).rev() {
        stream.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    stream
}

/// A small seeded generator for query thresholds (the database itself
/// comes from `ccs-datagen`).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs::prelude::{parse_query, AttributeTable};

    #[test]
    fn every_query_parses_and_is_seed_deterministic() {
        for w in &WORKLOADS {
            let attrs = AttributeTable::with_identity_prices(w.items);
            assert_eq!(w.queries(7), w.queries(7));
            for q in w.queries(7) {
                parse_query(&q, &attrs).unwrap();
            }
        }
        let s = Workload::find("session-explore").unwrap();
        assert_ne!(s.queries(1), s.queries(2));
    }

    #[test]
    fn databases_are_seeded_draws_from_one_pool() {
        let w = Workload {
            baskets: 500,
            ..WORKLOADS[0]
        };
        let a = w.database(1);
        assert_eq!(a.len(), 500);
        assert_eq!(a.n_items(), w.items);
        let b = w.database(1);
        let c = w.database(2);
        let rows = |db: &TransactionDb| db.transactions().map(<[_]>::to_vec).collect::<Vec<_>>();
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
    }
}
